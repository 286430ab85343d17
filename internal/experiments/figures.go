package experiments

import (
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

// ---- Figure 5: performance of synchronous calls ----

// Fig5Result holds the latency bars of Fig. 5.
type Fig5Result struct {
	Bars []Measurement
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
	return &Fig5Result{Bars: sweep(len(bars), func(i int) Measurement { return bars[i]() })}
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

// ---- Figure 6: argument size sweep ----

// Fig6Result holds the added-time series of Fig. 6.
type Fig6Result struct {
	Series []stats.Series // Y values: added ns over a function call
}

// Fig6Sizes is the paper's argument-size axis: every other power of
// two, 2^0 .. 2^20.
var Fig6Sizes = []int{1 << 0, 1 << 2, 1 << 4, 1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}

// RunFig6 sweeps the argument size for each primitive.
func RunFig6(sizes []int) *Fig6Result {
	base := MeasureFunc().Mean
	res := &Fig6Result{}
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

// ---- Table 1: architecture comparison ----

// Table1Result holds the comparison rows.
type Table1Result struct {
	Rows []archcmp.Result
}

// RunTable1 computes the comparison for the given bulk size.
func RunTable1(bulkBytes int) *Table1Result {
	return &Table1Result{Rows: archcmp.Compare(cost.Default(), bulkBytes)}
}

// ---- Figure 7: Infiniband driver isolation ----

// Fig7Result holds the overhead curves.
type Fig7Result struct {
	Latency map[netpipe.Variant]stats.Series // latency overhead %
	BW      map[netpipe.Variant]stats.Series // bandwidth overhead %
	// AbsLatency is each variant's mean round-trip latency in ns, the
	// bare baseline included.
	AbsLatency map[netpipe.Variant]stats.Series
}

// Fig7Variants are the isolation mechanisms compared.
var Fig7Variants = []netpipe.Variant{
	netpipe.DIPC, netpipe.DIPCProc, netpipe.Kernel, netpipe.Sem, netpipe.Pipe,
}

// Fig7Sizes is the paper's transfer-size axis: every power of two,
// 2^0 .. 2^12.
var Fig7Sizes = []int{
	1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 6,
	1 << 7, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12,
}

// RunFig7 sweeps transfer sizes for each variant.
func RunFig7(sizes []int) *Fig7Result {
	res := &Fig7Result{
		Latency:    make(map[netpipe.Variant]stats.Series),
		BW:         make(map[netpipe.Variant]stats.Series),
		AbsLatency: make(map[netpipe.Variant]stats.Series),
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
	type fig7Point struct {
		lat, bw float64
		abs     sim.Time
	}
	pts := sweep(len(Fig7Variants)*len(sizes), func(i int) fig7Point {
		v := Fig7Variants[i/len(sizes)]
		si := i % len(sizes)
		gotLat := netpipe.Setup(v, 1).RunLatency(sizes[si], latRounds)
		gotBW := netpipe.Setup(v, 1).RunBandwidth(sizes[si], bwMsgs)
		return fig7Point{
			lat: (float64(gotLat) - float64(bases[si].lat)) / float64(bases[si].lat) * 100,
			bw:  (1 - gotBW/bases[si].bw) * 100,
			abs: gotLat,
		}
	})
	bare := stats.Series{Label: netpipe.Bare.String()}
	for si, size := range sizes {
		bare.Add(float64(size), bases[si].lat.Nanoseconds())
	}
	res.AbsLatency[netpipe.Bare] = bare
	for vi, v := range Fig7Variants {
		lat := stats.Series{Label: v.String()}
		bw := stats.Series{Label: v.String()}
		abs := stats.Series{Label: v.String()}
		for si, size := range sizes {
			p := pts[vi*len(sizes)+si]
			lat.Add(float64(size), p.lat)
			bw.Add(float64(size), p.bw)
			abs.Add(float64(size), p.abs.Nanoseconds())
		}
		res.Latency[v] = lat
		res.BW[v] = bw
		res.AbsLatency[v] = abs
	}
	return res
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

// ---- Figure 8: OLTP throughput ----

// Fig8Cell is one bar of Fig. 8.
type Fig8Cell struct {
	Mode    oltp.Mode
	Threads int
	Result  *oltp.Result
}

// Fig8Result holds one storage configuration's bars.
type Fig8Result struct {
	Cells []Fig8Cell
}

// Fig8Threads is the paper's concurrency axis.
var Fig8Threads = []int{4, 16, 64, 256, 512}

// RunFig8 sweeps modes × concurrency for one storage configuration.
func RunFig8(inMemory bool, threads []int, window sim.Time) *Fig8Result {
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
	return &Fig8Result{Cells: cells}
}

// Cell returns the run of one (mode, threads) cell, or nil if absent.
func (r *Fig8Result) Cell(mode oltp.Mode, threads int) *oltp.Result {
	for _, c := range r.Cells {
		if c.Mode == mode && c.Threads == threads {
			return c.Result
		}
	}
	return nil
}

// Throughput returns the cell's ops/min (0 if absent).
func (r *Fig8Result) Throughput(mode oltp.Mode, threads int) float64 {
	if c := r.Cell(mode, threads); c != nil {
		return c.Throughput
	}
	return 0
}
