package experiments

import (
	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/sim"
)

// SensitivityResult reproduces the §7.5 analysis: how much slower could
// the hardware domain crossings be — and how much capability traffic
// could the compiler emit — before dIPC's macro-benchmark advantage
// disappears.
type SensitivityResult struct {
	CallsPerOp     float64  // measured cross-domain calls per operation
	AvgCallCost    sim.Time // dIPC per-call cost implied by the gap to Ideal
	HeadroomPerOp  sim.Time // dIPC's advantage over Linux, per operation
	BreakEvenX     float64  // how much slower calls could get (paper: 14x)
	CapOverheadPct float64  // modeled worst-case capability-traffic cost (paper: 12%)
	SpeedupWithCap float64  // dIPC speedup after that overhead (paper: 1.59x)
	Speedup        float64  // measured dIPC speedup
}

// RunSensitivity performs the analysis on the in-memory configuration.
func RunSensitivity(threads int, window sim.Time) *SensitivityResult {
	if threads == 0 {
		threads = 16
	}
	base := oltp.Config{InMemory: true, Threads: threads, Window: window, Seed: 5}
	linuxCfg, dipcCfg, idealCfg := base, base, base
	linuxCfg.Mode = oltp.ModeLinux
	dipcCfg.Mode = oltp.ModeDIPC
	idealCfg.Mode = oltp.ModeIdeal
	cfgs := []oltp.Config{linuxCfg, dipcCfg, idealCfg}
	runs := sweep(len(cfgs), func(i int) *oltp.Result { return oltp.Run(cfgs[i]) })
	linux, dipc, ideal := runs[0], runs[1], runs[2]

	res := &SensitivityResult{CallsPerOp: dipc.CallsPerOp}
	// Per-operation times from throughput (4 CPUs).
	opTime := func(r *oltp.Result) sim.Time {
		if r.Throughput == 0 {
			return 0
		}
		return sim.Time(float64(sim.Second) * 60 / r.Throughput)
	}
	linuxOp, dipcOp, idealOp := opTime(linux), opTime(dipc), opTime(ideal)
	if dipc.CallsPerOp > 0 {
		// The dIPC-vs-Ideal gap divided by the call count is the
		// effective cost of one proxied call at macro scale (the paper
		// measures 252 ns, higher than the micro-benchmarks due to
		// cache pressure).
		res.AvgCallCost = sim.Time(float64(dipcOp-idealOp) / dipc.CallsPerOp)
		if res.AvgCallCost < 0 {
			res.AvgCallCost = 0
		}
	}
	res.HeadroomPerOp = linuxOp - dipcOp
	if res.AvgCallCost > 0 && dipc.CallsPerOp > 0 {
		extra := float64(res.HeadroomPerOp) / dipc.CallsPerOp
		res.BreakEvenX = 1 + extra/float64(res.AvgCallCost)
	} else if dipc.CallsPerOp > 0 {
		// Calls are currently free at this resolution; bound the
		// break-even with the micro-benchmark call cost instead.
		micro := MeasureDIPC(true, true, 1).Mean
		res.BreakEvenX = 1 + float64(res.HeadroomPerOp)/dipc.CallsPerOp/float64(micro)
	}
	if linux.Throughput > 0 {
		res.Speedup = dipc.Throughput / linux.Throughput
	}
	// Worst-case capability traffic (§7.5): assume ~2% of the
	// application's memory accesses are cross-domain and each drags a
	// 32 B capability load with it. Express it against the measured
	// user time per operation.
	p := cost.Default()
	const crossAccessShare = 0.02
	userPerOp := sim.Time(float64(dipcOp) * dipc.UserShare())
	// Approximate the access rate as one per 2 ns of user execution.
	accesses := float64(userPerOp) / float64(2*sim.Nanosecond)
	capCost := sim.Time(accesses * crossAccessShare * float64(p.CapLoadStore))
	res.CapOverheadPct = 100 * float64(capCost) / float64(dipcOp)
	if linux.Throughput > 0 {
		degraded := dipc.Throughput * (1 - float64(capCost)/float64(dipcOp+capCost))
		res.SpeedupWithCap = degraded / linux.Throughput
	}
	return res
}
