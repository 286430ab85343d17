package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/netpipe"
	"repro/internal/apps/oltp"
	"repro/internal/archcmp"
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ---- Figure 2: time breakdown of IPC primitives ----

// Fig2Result holds the breakdown bars of Fig. 2.
type Fig2Result struct {
	Bars []Measurement
}

// RunFig2 measures the classic primitives with a one-byte argument. The
// bars are independent simulations, so they run on the sweep harness.
func RunFig2() *Fig2Result {
	bars := []func() Measurement{
		func() Measurement { return MeasureSem(true, 1) },
		func() Measurement { return MeasureSem(false, 1) },
		func() Measurement { return MeasureL4(true) },
		func() Measurement { return MeasureL4(false) },
		func() Measurement { return MeasureRPC(true, 1) },
		func() Measurement { return MeasureRPC(false, 1) },
	}
	return &Fig2Result{Bars: sweep(len(bars), func(i int) Measurement { return bars[i]() })}
}

// Render formats the stacked-bar data as text.
func (r *Fig2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 2: time breakdown of IPC primitives (1-byte argument) ==\n")
	for _, b := range r.Bars {
		fmt.Fprintf(&sb, "%s: %s round trip\n", b.Label, b.Mean)
		for cpu, bd := range b.PerCPU {
			if bd.Total() == 0 {
				continue
			}
			fmt.Fprintf(&sb, " CPU %d:\n%s", cpu, bd.String())
		}
	}
	return sb.String()
}

// ---- Figure 5: performance of synchronous calls ----

// Fig5Result holds the latency bars of Fig. 5.
type Fig5Result struct {
	Bars []Measurement
	P    *cost.Params
}

// RunFig5 measures every configuration in the figure, fanning the
// independent bars out over the sweep harness.
func RunFig5() *Fig5Result {
	bars := []func() Measurement{
		MeasureFunc,
		MeasureSyscall,
		func() Measurement { return MeasureDIPC(false, false, 1) },
		func() Measurement { return MeasureDIPC(false, true, 1) },
		func() Measurement { return MeasureSem(true, 1) },
		func() Measurement { return MeasureSem(false, 1) },
		func() Measurement { return MeasurePipe(true, 1) },
		func() Measurement { return MeasurePipe(false, 1) },
		func() Measurement { return MeasureDIPC(true, false, 1) },
		func() Measurement { return MeasureDIPC(true, true, 1) },
		func() Measurement { return MeasureRPC(true, 1) },
		func() Measurement { return MeasureRPC(false, 1) },
		func() Measurement { return MeasureL4(true) },
		func() Measurement { return MeasureUserRPC(1) },
	}
	return &Fig5Result{
		P:    cost.Default(),
		Bars: sweep(len(bars), func(i int) Measurement { return bars[i]() }),
	}
}

// Find returns the bar with the given label.
func (r *Fig5Result) Find(label string) (Measurement, bool) {
	for _, b := range r.Bars {
		if b.Label == label {
			return b, true
		}
	}
	return Measurement{}, false
}

// Headlines computes the paper's headline ratios: dIPC vs local RPC and
// vs L4, plus the asymmetric-policy spread.
func (r *Fig5Result) Headlines() (vsRPC, vsL4, lowHighSpread float64) {
	rpc, _ := r.Find("Local RPC (=CPU)")
	l4, _ := r.Find("L4 (=CPU)")
	dipcHigh, _ := r.Find("dIPC - High (=CPU;+proc)")
	dipcLowIntra, _ := r.Find("dIPC - Low (=CPU)")
	dipcHighIntra, _ := r.Find("dIPC - High (=CPU)")
	if dipcHigh.Mean > 0 {
		vsRPC = float64(rpc.Mean) / float64(dipcHigh.Mean)
		vsL4 = float64(l4.Mean) / float64(dipcHigh.Mean)
	}
	if dipcLowIntra.Mean > 0 {
		lowHighSpread = float64(dipcHighIntra.Mean) / float64(dipcLowIntra.Mean)
	}
	return
}

// Render formats the figure.
func (r *Fig5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 5: performance of synchronous calls (1-byte argument) ==\n")
	for _, b := range r.Bars {
		fmt.Fprintf(&sb, "  %-26s %10s  (%.0fx a function call)\n",
			b.Label, b.Mean, b.Ratio(r.P))
	}
	vsRPC, vsL4, spread := r.Headlines()
	fmt.Fprintf(&sb, "Headlines: dIPC is %.2fx faster than local RPC (paper: 64.12x), "+
		"%.2fx faster than L4 (paper: 8.87x); asymmetric policies span %.2fx (paper: 8.47x)\n",
		vsRPC, vsL4, spread)
	return sb.String()
}

// ---- Figure 6: argument size sweep ----

// Fig6Result holds the added-time series of Fig. 6.
type Fig6Result struct {
	Sizes  []int
	Series []stats.Series // Y values: added ns over a function call
}

// Fig6Sizes are the powers of two of the sweep (2^0 .. 2^20).
func Fig6Sizes(maxPow int) []int {
	var out []int
	for p := 0; p <= maxPow; p += 2 {
		out = append(out, 1<<p)
	}
	return out
}

// RunFig6 sweeps the argument size for each primitive.
func RunFig6(sizes []int) *Fig6Result {
	if len(sizes) == 0 {
		sizes = Fig6Sizes(20)
	}
	base := MeasureFunc().Mean
	res := &Fig6Result{Sizes: sizes}
	kinds := []struct {
		label string
		f     func(size int) Measurement
	}{
		{"Syscall", func(int) Measurement { return MeasureSyscall() }},
		{"Sem. (!=CPU)", func(s int) Measurement { return MeasureSem(false, s) }},
		{"Pipe (!=CPU)", func(s int) Measurement { return MeasurePipe(false, s) }},
		{"Local RPC (!=CPU)", func(s int) Measurement { return MeasureRPC(false, s) }},
		{"dIPC - Low (=CPU)", func(s int) Measurement { return MeasureDIPC(false, false, s) }},
		{"dIPC - High (=CPU)", func(s int) Measurement { return MeasureDIPC(false, true, s) }},
		{"dIPC - Low (=CPU;+proc)", func(s int) Measurement { return MeasureDIPC(true, false, s) }},
		{"dIPC - High (=CPU;+proc)", func(s int) Measurement { return MeasureDIPC(true, true, s) }},
		{"dIPC - User RPC (!=CPU)", func(s int) Measurement { return MeasureUserRPC(s) }},
	}
	// One sweep point per (primitive, size) pair; every point builds its
	// own machine inside the Measure* call.
	means := sweep(len(kinds)*len(sizes), func(i int) sim.Time {
		return kinds[i/len(sizes)].f(sizes[i%len(sizes)]).Mean
	})
	for ki, k := range kinds {
		s := stats.Series{Label: k.label}
		for si, size := range sizes {
			s.Add(float64(size), means[ki*len(sizes)+si].Nanoseconds()-base.Nanoseconds())
		}
		res.Series = append(res.Series, s)
	}
	return res
}

// SeriesByLabel finds a series.
func (r *Fig6Result) SeriesByLabel(label string) (stats.Series, bool) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, true
		}
	}
	return stats.Series{}, false
}

// Render formats the sweep as a table.
func (r *Fig6Result) Render() string {
	tb := &stats.Table{Title: "Figure 6: added time over a function call [ns] by argument size"}
	tb.Columns = append(tb.Columns, "size [B]")
	for _, s := range r.Series {
		tb.Columns = append(tb.Columns, s.Label)
	}
	for i, size := range r.Sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.0f", s.Y[i]))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// ---- Table 1: architecture comparison ----

// Table1Result holds the comparison rows.
type Table1Result struct {
	Rows      []archcmp.Result
	BulkBytes int
}

// RunTable1 computes the comparison for the given bulk size.
func RunTable1(bulkBytes int) *Table1Result {
	return &Table1Result{
		Rows:      archcmp.Compare(cost.Default(), bulkBytes),
		BulkBytes: bulkBytes,
	}
}

// Render formats the table.
func (r *Table1Result) Render() string {
	tb := &stats.Table{
		Title:   fmt.Sprintf("Table 1: round-trip domain switch + %d B bulk data", r.BulkBytes),
		Columns: []string{"Architecture", "Switch", "Data", "Total", "Operations"},
	}
	for _, row := range r.Rows {
		tb.AddRow(row.Arch.String(), row.SwitchCost.String(), row.DataCost.String(),
			row.Total().String(), row.Operations)
	}
	return tb.String()
}

// ---- Figure 7: Infiniband driver isolation ----

// Fig7Result holds the overhead curves.
type Fig7Result struct {
	Sizes   []int
	Latency map[netpipe.Variant]stats.Series // latency overhead %
	BW      map[netpipe.Variant]stats.Series // bandwidth overhead %
}

// Fig7Variants are the isolation mechanisms compared.
var Fig7Variants = []netpipe.Variant{
	netpipe.DIPC, netpipe.DIPCProc, netpipe.Kernel, netpipe.Sem, netpipe.Pipe,
}

// RunFig7 sweeps transfer sizes for each variant.
func RunFig7(sizes []int) *Fig7Result {
	if len(sizes) == 0 {
		for p := 0; p <= 12; p += 2 {
			sizes = append(sizes, 1<<p)
		}
	}
	res := &Fig7Result{
		Sizes:   sizes,
		Latency: make(map[netpipe.Variant]stats.Series),
		BW:      make(map[netpipe.Variant]stats.Series),
	}
	const latRounds, bwMsgs = 60, 150
	// The bare baselines are variant-independent and deterministic, so
	// they are simulated once per size instead of once per point.
	type bareBase struct {
		lat sim.Time
		bw  float64
	}
	bases := sweep(len(sizes), func(i int) bareBase {
		return bareBase{
			lat: netpipe.Setup(netpipe.Bare, 1).RunLatency(sizes[i], latRounds),
			bw:  netpipe.Setup(netpipe.Bare, 1).RunBandwidth(sizes[i], bwMsgs),
		}
	})
	// One sweep point per (variant, size) pair, computing the same
	// overhead formulas as the sequential loop.
	type fig7Point struct{ lat, bw float64 }
	pts := sweep(len(Fig7Variants)*len(sizes), func(i int) fig7Point {
		v := Fig7Variants[i/len(sizes)]
		si := i % len(sizes)
		gotLat := netpipe.Setup(v, 1).RunLatency(sizes[si], latRounds)
		gotBW := netpipe.Setup(v, 1).RunBandwidth(sizes[si], bwMsgs)
		return fig7Point{
			lat: (float64(gotLat) - float64(bases[si].lat)) / float64(bases[si].lat) * 100,
			bw:  (1 - gotBW/bases[si].bw) * 100,
		}
	})
	for vi, v := range Fig7Variants {
		lat := stats.Series{Label: v.String()}
		bw := stats.Series{Label: v.String()}
		for si, size := range sizes {
			p := pts[vi*len(sizes)+si]
			lat.Add(float64(size), p.lat)
			bw.Add(float64(size), p.bw)
		}
		res.Latency[v] = lat
		res.BW[v] = bw
	}
	return res
}

// Render formats both panels.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	for _, panel := range []struct {
		name string
		data map[netpipe.Variant]stats.Series
	}{{"latency overhead [%]", r.Latency}, {"bandwidth overhead [%]", r.BW}} {
		tb := &stats.Table{Title: "Figure 7: " + panel.name}
		tb.Columns = append(tb.Columns, "size [B]")
		for _, v := range Fig7Variants {
			tb.Columns = append(tb.Columns, v.String())
		}
		for i, size := range r.Sizes {
			row := []string{fmt.Sprintf("%d", size)}
			for _, v := range Fig7Variants {
				row = append(row, fmt.Sprintf("%.1f", panel.data[v].Y[i]))
			}
			tb.AddRow(row...)
		}
		sb.WriteString(tb.String())
	}
	return sb.String()
}

// ---- Figure 1: OLTP time breakdown ----

// Fig1Result compares the Linux and Ideal stacks.
type Fig1Result struct {
	Linux *oltp.Result
	Ideal *oltp.Result
}

// RunFig1 measures both configurations at low concurrency, where the
// per-operation latency breakdown is cleanest.
func RunFig1(window sim.Time) *Fig1Result {
	cfg := oltp.Config{Mode: oltp.ModeLinux, InMemory: true, Threads: 4, Window: window, Seed: 5}
	linux := oltp.Run(cfg)
	cfg.Mode = oltp.ModeIdeal
	ideal := oltp.Run(cfg)
	return &Fig1Result{Linux: linux, Ideal: ideal}
}

// Speedup returns Ideal over Linux (the paper reports 1.92×).
func (r *Fig1Result) Speedup() float64 {
	return float64(r.Linux.AvgLatency) / float64(r.Ideal.AvgLatency)
}

// Render formats the two bars.
func (r *Fig1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("== Figure 1: OLTP time breakdown (Linux vs Ideal) ==\n")
	for _, row := range []struct {
		name string
		res  *oltp.Result
	}{{"Linux", r.Linux}, {"Ideal (unsafe)", r.Ideal}} {
		fmt.Fprintf(&sb, "  %-14s latency=%-9s user=%4.1f%% kernel=%4.1f%% idle=%4.1f%%\n",
			row.name, row.res.AvgLatency,
			100*row.res.UserShare(), 100*row.res.KernelShare(), 100*row.res.IdleShare())
	}
	fmt.Fprintf(&sb, "IPC overhead: %.2fx (paper: 1.92x)\n", r.Speedup())
	return sb.String()
}

// ---- Figure 8: OLTP throughput ----

// Fig8Cell is one bar of Fig. 8.
type Fig8Cell struct {
	Mode    oltp.Mode
	Threads int
	Result  *oltp.Result
}

// Fig8Result holds one storage configuration's bars.
type Fig8Result struct {
	InMemory bool
	Cells    []Fig8Cell
}

// Fig8Threads is the paper's concurrency axis.
var Fig8Threads = []int{4, 16, 64, 256, 512}

// RunFig8 sweeps modes × concurrency for one storage configuration.
func RunFig8(inMemory bool, threads []int, window sim.Time) *Fig8Result {
	if len(threads) == 0 {
		threads = Fig8Threads
	}
	modes := []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal}
	// One sweep point per (mode, threads) cell; each oltp.Run builds its
	// own engine and machine.
	cells := sweep(len(modes)*len(threads), func(i int) Fig8Cell {
		mode, th := modes[i/len(threads)], threads[i%len(threads)]
		r := oltp.Run(oltp.Config{
			Mode: mode, InMemory: inMemory, Threads: th, Window: window, Seed: 5,
		})
		return Fig8Cell{Mode: mode, Threads: th, Result: r}
	})
	return &Fig8Result{InMemory: inMemory, Cells: cells}
}

// Throughput returns the cell's ops/min (0 if absent).
func (r *Fig8Result) Throughput(mode oltp.Mode, threads int) float64 {
	for _, c := range r.Cells {
		if c.Mode == mode && c.Threads == threads {
			return c.Result.Throughput
		}
	}
	return 0
}

// Render formats the figure with the per-concurrency speedups the paper
// annotates.
func (r *Fig8Result) Render() string {
	storage := "on-disk DB"
	if r.InMemory {
		storage = "in-memory DB"
	}
	tb := &stats.Table{
		Title:   "Figure 8: OLTP throughput [ops/min], " + storage,
		Columns: []string{"threads", "Linux", "dIPC", "dIPC speedup", "Ideal", "Ideal speedup", "dIPC/Ideal"},
	}
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if seen[c.Threads] {
			continue
		}
		seen[c.Threads] = true
		lin := r.Throughput(oltp.ModeLinux, c.Threads)
		dip := r.Throughput(oltp.ModeDIPC, c.Threads)
		ide := r.Throughput(oltp.ModeIdeal, c.Threads)
		row := []string{fmt.Sprintf("%d", c.Threads),
			fmt.Sprintf("%.0f", lin), fmt.Sprintf("%.0f", dip), "-",
			fmt.Sprintf("%.0f", ide), "-", "-"}
		if lin > 0 {
			row[3] = fmt.Sprintf("%.2fx", dip/lin)
			row[5] = fmt.Sprintf("%.2fx", ide/lin)
		}
		if ide > 0 {
			row[6] = fmt.Sprintf("%.1f%%", 100*dip/ide)
		}
		tb.AddRow(row...)
	}
	return tb.String()
}
