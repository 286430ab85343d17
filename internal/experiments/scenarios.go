// Scenario registrations: every experiment of the paper's evaluation,
// exposed through the first-class scenario API (internal/scenario).
// Each registration wraps the corresponding Run* function, declares its
// typed parameters, and builds the uniform series model that both the
// canonical JSON (pinned by the golden files) and the text rendering
// are made from.
//
// Registration order is the execution order of "all" and matches the
// original hand-wired cmd/dipcbench step table.

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/netpipe"
	"repro/internal/apps/oltp"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Parameter bounds. The underlying Run* functions replace non-positive
// values with defaults; scenarios must reject them instead, or the
// resolved parameters recorded in the canonical JSON (and in BENCH_*.json
// baselines) would misstate what actually ran. Each ParamSpec declares
// its lower bound (positive unless set with AtLeast) and NewConfig
// enforces it; a Check adds only upper bounds and cross-parameter rules.

// faultsAfterBoot requires each named fault time to fall at or after
// the boot of chain c: the injector cannot schedule a plan event in the
// past. A zero time means "never" and passes.
func faultsAfterBoot(cfg *scenario.Config, c oltp.ChainFaultsConfig, keys ...string) error {
	boot := c.BootTime()
	for _, key := range keys {
		if d := cfg.Duration(key); d != 0 && d < boot {
			return fmt.Errorf("%s must be at or after the %s chain's boot at %s, got %s", key, c.Mode, boot, d)
		}
	}
	return nil
}

// restartAfterKill requires a nonzero restartat to fall strictly after
// killat: a restart at or before the kill would leave the target dead
// for the rest of the run while the notes report a restart.
func restartAfterKill(cfg *scenario.Config) error {
	killat, restartat := cfg.Duration("killat"), cfg.Duration("restartat")
	if restartat != 0 && restartat <= killat {
		return fmt.Errorf("restartat must be after killat (%s), got %s",
			scenario.FormatDuration(killat), scenario.FormatDuration(restartat))
	}
	return nil
}

// maxFlaps caps the link outages one flap schedule may hold. Each
// outage is two fault events built up front, so a picosecond flapperiod
// over a millisecond window would ask for 10⁹ outages and exhaust memory
// before the run starts.
const maxFlaps = 100_000

// flapBudget refuses a flapperiod that packs more than maxFlaps outages
// into the measurement window.
func flapBudget(cfg *scenario.Config) error {
	window, period := cfg.Duration("window"), cfg.Duration("flapperiod")
	n := window / period
	if window%period != 0 {
		n++
	}
	if n > maxFlaps {
		return fmt.Errorf("flapperiod %s schedules %d link outages in the %s window, more than the %d a run allows",
			scenario.FormatDuration(period), int64(n), scenario.FormatDuration(window), maxFlaps)
	}
	return nil
}

// Shared parameter specs. window is an ordinary per-scenario
// parameter: `dipcbench run|bench -p window=...` reaches every
// selected scenario that declares the key.
func windowParam() scenario.ParamSpec {
	return scenario.Param("window", scenario.Duration, "250ms", "OLTP measurement window (simulated time)")
}

func threadsParam(def string) scenario.ParamSpec {
	return scenario.Param("threads", scenario.Int, def, "threads per component")
}

// ---- series converters ----

// cpuSlices converts per-CPU breakdowns into the JSON model, dropping
// CPUs that saw no time.
func cpuSlices(per []stats.Breakdown) []scenario.CPUSlice {
	var out []scenario.CPUSlice
	for cpu, bd := range per {
		if bd.Total() == 0 {
			continue
		}
		blocks := make(map[string]float64)
		for b := stats.Block(0); b < stats.NumBlocks; b++ {
			if bd[b] != 0 {
				blocks[b.String()] = bd[b].Nanoseconds()
			}
		}
		out = append(out, scenario.CPUSlice{CPU: cpu, Blocks: blocks})
	}
	return out
}

// measurementSeries converts micro-benchmark bars into one labeled
// series with per-CPU breakdowns.
func measurementSeries(label string, ms []Measurement) scenario.Series {
	s := scenario.Series{Label: label, Unit: "ns"}
	for i, m := range ms {
		s.Points = append(s.Points, scenario.Point{
			Label: m.Label, X: float64(i), Y: m.Mean.Nanoseconds(), PerCPU: cpuSlices(m.PerCPU),
		})
	}
	return s
}

// statsSeries converts stats.Series sweeps (x already numeric).
func statsSeries(unit string, ss []stats.Series) []scenario.Series {
	out := make([]scenario.Series, len(ss))
	for i, s := range ss {
		ps := scenario.Series{Label: s.Label, Unit: unit}
		for j := range s.X {
			ps.Points = append(ps.Points, scenario.Point{X: s.X[j], Y: s.Y[j]})
		}
		out[i] = ps
	}
	return out
}

// labeledPoints builds a series of categorical points.
func labeledPoints(label, unit string, names []string, values []float64) scenario.Series {
	s := scenario.Series{Label: label, Unit: unit}
	for i, n := range names {
		s.Points = append(s.Points, scenario.Point{Label: n, X: float64(i), Y: values[i]})
	}
	return s
}

// fig8ThreadsAxis returns the distinct thread counts in cell order.
func fig8ThreadsAxis(cells []Fig8Cell) []int {
	var out []int
	seen := map[int]bool{}
	for _, c := range cells {
		if !seen[c.Threads] {
			seen[c.Threads] = true
			out = append(out, c.Threads)
		}
	}
	return out
}

var oltpModes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal}

// fig8Quantity is one per-cell quantity fig8 reports for every mode and
// storage: the series label suffix, its unit and how to read it.
type fig8Quantity struct {
	suffix, unit string
	value        func(*oltp.Result) float64
}

var fig8Quantities = []fig8Quantity{
	{"", "ops/min", func(r *oltp.Result) float64 { return r.Throughput }},
	{" avg latency", "ns", func(r *oltp.Result) float64 { return r.AvgLatency.Nanoseconds() }},
	{" user share", "%", func(r *oltp.Result) float64 { return 100 * r.UserShare() }},
	{" kernel share", "%", func(r *oltp.Result) float64 { return 100 * r.KernelShare() }},
	{" idle share", "%", func(r *oltp.Result) float64 { return 100 * r.IdleShare() }},
	{" calls", "calls/op", func(r *oltp.Result) float64 { return r.CallsPerOp }},
}

// fig8Series converts one storage configuration into per-mode series of
// quantity q.
func fig8Series(r *Fig8Result, storage string, q fig8Quantity) []scenario.Series {
	var out []scenario.Series
	for _, mode := range oltpModes {
		s := scenario.Series{Label: fmt.Sprintf("%s (%s)%s", mode, storage, q.suffix), Unit: q.unit}
		for _, th := range fig8ThreadsAxis(r.Cells) {
			s.Points = append(s.Points, scenario.Point{X: float64(th), Y: q.value(r.Cell(mode, th))})
		}
		out = append(out, s)
	}
	return out
}

// fig8SpeedupNote states dIPC's and Ideal's throughput over Linux at
// each thread count of one storage configuration.
func fig8SpeedupNote(r *Fig8Result, storage string) string {
	var parts []string
	for _, th := range fig8ThreadsAxis(r.Cells) {
		lin := r.Throughput(oltp.ModeLinux, th)
		parts = append(parts, fmt.Sprintf("%d threads dIPC %.2fx Ideal %.2fx", th,
			r.Throughput(oltp.ModeDIPC, th)/lin, r.Throughput(oltp.ModeIdeal, th)/lin))
	}
	return fmt.Sprintf("%s speedup over Linux: %s", storage, strings.Join(parts, ", "))
}

// ---- scenario runs ----

func runAnchorsScenario(cfg *scenario.Config) (*scenario.Result, error) {
	return &scenario.Result{
		Scenario: "anchors",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", []Measurement{MeasureFunc(), MeasureSyscall()})},
	}, nil
}

func runTable1Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunTable1(cfg.Int("bulk"))
	var names, ops []string
	var sw, data, total []float64
	for _, row := range r.Rows {
		names = append(names, row.Arch.String())
		sw = append(sw, row.SwitchCost.Nanoseconds())
		data = append(data, row.DataCost.Nanoseconds())
		total = append(total, row.Total().Nanoseconds())
		ops = append(ops, row.Arch.String()+": "+row.Operations)
	}
	return &scenario.Result{
		Scenario: "table1",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("switch", "ns", names, sw),
			labeledPoints("data", "ns", names, data),
			labeledPoints("total", "ns", names, total),
		},
		Notes: ops,
	}, nil
}

func runFig2Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig2()
	return &scenario.Result{
		Scenario: "fig2",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", r.Bars)},
	}, nil
}

func runFig5Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig5()
	vsRPC, vsL4, spread := r.Headlines()
	return &scenario.Result{
		Scenario: "fig5",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{measurementSeries("round trip", r.Bars)},
		Notes: []string{
			fmt.Sprintf("dIPC vs local RPC: %.2fx (paper: 64.12x)", vsRPC),
			fmt.Sprintf("dIPC vs L4: %.2fx (paper: 8.87x)", vsL4),
			fmt.Sprintf("asymmetric policy spread: %.2fx (paper: 8.47x)", spread),
		},
	}, nil
}

func runFig6Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig6(Fig6Sizes)
	return &scenario.Result{
		Scenario: "fig6",
		Params:   cfg.ParamStrings(),
		Series:   statsSeries("ns added", r.Series),
	}, nil
}

func runFig7Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig7(Fig7Sizes)
	var series []scenario.Series
	for _, v := range Fig7Variants {
		lat := r.Latency[v]
		lat.Label = "latency overhead: " + lat.Label
		series = append(series, statsSeries("%", []stats.Series{lat})...)
	}
	for _, v := range Fig7Variants {
		bw := r.BW[v]
		bw.Label = "bandwidth overhead: " + bw.Label
		series = append(series, statsSeries("%", []stats.Series{bw})...)
	}
	for _, v := range append([]netpipe.Variant{netpipe.Bare}, Fig7Variants...) {
		abs := r.AbsLatency[v]
		abs.Label = "latency: " + abs.Label
		series = append(series, statsSeries("ns", []stats.Series{abs})...)
	}
	return &scenario.Result{
		Scenario: "fig7",
		Params:   cfg.ParamStrings(),
		Series:   series,
	}, nil
}

func runFig1Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunFig1(cfg.Duration("window"))
	names := []string{"Linux", "Ideal (unsafe)"}
	results := []*oltp.Result{r.Linux, r.Ideal}
	lat := make([]float64, len(results))
	user := make([]float64, len(results))
	kern := make([]float64, len(results))
	idle := make([]float64, len(results))
	for i, res := range results {
		lat[i] = res.AvgLatency.Nanoseconds()
		user[i] = 100 * res.UserShare()
		kern[i] = 100 * res.KernelShare()
		idle[i] = 100 * res.IdleShare()
	}
	return &scenario.Result{
		Scenario: "fig1",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("avg latency", "ns", names, lat),
			labeledPoints("user share", "%", names, user),
			labeledPoints("kernel share", "%", names, kern),
			labeledPoints("idle share", "%", names, idle),
		},
		Notes: []string{fmt.Sprintf("IPC overhead: %.2fx (paper: 1.92x)", r.Speedup())},
	}, nil
}

func runFig8Scenario(cfg *scenario.Config) (*scenario.Result, error) {
	threads, window := cfg.Ints("threads"), cfg.Duration("window")
	onDisk := RunFig8(false, threads, window)
	inMem := RunFig8(true, threads, window)
	var series []scenario.Series
	for _, q := range fig8Quantities {
		series = append(series, fig8Series(onDisk, "on-disk", q)...)
		series = append(series, fig8Series(inMem, "in-memory", q)...)
	}
	return &scenario.Result{
		Scenario: "fig8",
		Params:   cfg.ParamStrings(),
		Series:   series,
		Notes:    []string{fig8SpeedupNote(onDisk, "on-disk"), fig8SpeedupNote(inMem, "in-memory")},
	}, nil
}

func runFig8ScalingScenario(cfg *scenario.Config) (*scenario.Result, error) {
	cpus := cfg.Ints("cpus")
	r := RunFig8Scaling(cpus, cfg.Int("threads"), cfg.Duration("window"))
	var series []scenario.Series
	for _, mode := range oltpModes {
		s := scenario.Series{Label: mode.String(), Unit: "ops/min"}
		for _, nc := range cpus {
			s.Points = append(s.Points, scenario.Point{X: float64(nc), Y: r.Throughput(mode, nc)})
		}
		series = append(series, s)
	}
	return &scenario.Result{
		Scenario: "fig8scaling",
		Params:   cfg.ParamStrings(),
		Series:   series,
		Notes: []string{fmt.Sprintf("scaling across the sweep: Linux %.2fx, dIPC %.2fx, Ideal %.2fx",
			r.ScalingFactor(oltp.ModeLinux), r.ScalingFactor(oltp.ModeDIPC), r.ScalingFactor(oltp.ModeIdeal))},
	}, nil
}

func runSensitivityScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunSensitivity(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{
		"calls/op", "effective call cost [ns]", "headroom/op [ns]",
		"break-even slowdown [x]", "worst-case cap overhead [%]",
		"speedup with cap overhead [x]", "measured speedup [x]",
	}
	values := []float64{
		r.CallsPerOp, r.AvgCallCost.Nanoseconds(), r.HeadroomPerOp.Nanoseconds(),
		r.BreakEvenX, r.CapOverheadPct, r.SpeedupWithCap, r.Speedup,
	}
	return &scenario.Result{
		Scenario: "sensitivity",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("metrics", "", names, values)},
	}, nil
}

func runTLSAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunTLSAblation()
	names := []string{"Low base", "Low no-TLS", "High base", "High no-TLS"}
	values := []float64{
		r.LowBase.Nanoseconds(), r.LowNoTLS.Nanoseconds(),
		r.HighBase.Nanoseconds(), r.HighNoTLS.Nanoseconds(),
	}
	return &scenario.Result{
		Scenario: "ablation-tls",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("round trip", "ns", names, values)},
		Notes: []string{
			fmt.Sprintf("Low speedup without TLS switch: %.2fx", r.LowSpeedup()),
			fmt.Sprintf("High speedup without TLS switch: %.2fx", r.HighSpeedup()),
		},
	}, nil
}

func runSharedPTAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunSharedPTAblation(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{"shared table", "private table"}
	values := []float64{r.SharedPT.Throughput, r.PrivatePT.Throughput}
	return &scenario.Result{
		Scenario: "ablation-sharedpt",
		Params:   cfg.ParamStrings(),
		Series:   []scenario.Series{labeledPoints("throughput", "ops/min", names, values)},
		Notes:    []string{fmt.Sprintf("private-table penalty: %.1f%%", 100*r.Penalty())},
	}, nil
}

func runStealAblationScenario(cfg *scenario.Config) (*scenario.Result, error) {
	r := RunStealAblation(cfg.Int("threads"), cfg.Duration("window"))
	names := []string{"with steal", "no steal"}
	return &scenario.Result{
		Scenario: "ablation-steal",
		Params:   cfg.ParamStrings(),
		Series: []scenario.Series{
			labeledPoints("throughput", "ops/min", names,
				[]float64{r.WithSteal.Throughput, r.NoSteal.Throughput}),
			labeledPoints("idle share", "%", names,
				[]float64{100 * r.WithSteal.IdleShare(), 100 * r.NoSteal.IdleShare()}),
		},
	}, nil
}

func init() {
	scenario.Register(scenario.New("anchors",
		"Scalar anchors (§2.2): function call and empty syscall",
		nil, runAnchorsScenario))
	scenario.Register(scenario.New("table1",
		"Table 1: round-trip domain switch + bulk data across architectures",
		[]scenario.ParamSpec{
			scenario.Param("bulk", scenario.Int, "4096", "bulk data bytes per round trip").AtLeast("0"),
		},
		runTable1Scenario))
	scenario.Register(scenario.New("fig2",
		"Figure 2: time breakdown of IPC primitives (1-byte argument)",
		nil, runFig2Scenario))
	scenario.Register(scenario.New("fig5",
		"Figure 5: performance of synchronous calls (1-byte argument)",
		nil, runFig5Scenario))
	scenario.Register(scenario.New("fig6",
		"Figure 6: added time over a function call by argument size",
		nil, runFig6Scenario))
	scenario.Register(scenario.New("fig7",
		"Figure 7: Infiniband driver isolation overheads (latency and bandwidth)",
		nil, runFig7Scenario))
	scenario.Register(scenario.New("fig1",
		"Figure 1: OLTP time breakdown, Linux vs Ideal",
		[]scenario.ParamSpec{windowParam()},
		runFig1Scenario))
	scenario.Register(scenario.New("fig8",
		"Figure 8: OLTP throughput, modes x concurrency, on-disk and in-memory",
		[]scenario.ParamSpec{
			scenario.Param("threads", scenario.IntList, scenario.IntList.Format(Fig8Threads), "concurrency axis (threads per component)"),
			windowParam(),
		},
		runFig8Scenario))
	scenario.Register(scenario.New("fig8scaling",
		"Figure 8 extension: OLTP throughput vs simulated cores",
		[]scenario.ParamSpec{
			scenario.Param("cpus", scenario.IntList, scenario.IntList.Format(Fig8ScalingCPUs), "simulated core counts"),
			threadsParam("16"),
			windowParam(),
		},
		runFig8ScalingScenario))
	scenario.Register(scenario.New("sensitivity",
		"Sensitivity analysis (§7.5): call-cost and capability-traffic headroom",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		runSensitivityScenario))
	scenario.Register(scenario.New("ablation-tls",
		"Ablation: TLS segment switch cost (§6.1.2, §7.2)",
		nil, runTLSAblationScenario))
	scenario.Register(scenario.New("ablation-sharedpt",
		"Ablation: shared page table / global VA space (§6.1.3)",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		runSharedPTAblationScenario))
	scenario.Register(scenario.New("ablation-steal",
		"Ablation: scheduler idle stealing under IPC load",
		[]scenario.ParamSpec{threadsParam("16"), windowParam()},
		runStealAblationScenario))
	scenario.RegisterGroup("ablations",
		"the three ablation studies",
		"ablation-tls", "ablation-sharedpt", "ablation-steal")
}
