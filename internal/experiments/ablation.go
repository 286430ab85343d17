package experiments

import (
	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/sim"
)

// Ablation experiments for the design choices DESIGN.md calls out. Each
// removes (or degrades) one mechanism and re-measures, quantifying how
// much of dIPC's performance that mechanism is responsible for.

// TLSAblationResult quantifies §6.1.2/§7.2: "The TLS segment switch in
// dIPC takes a large part of the time, so optimizing it would
// substantially improve performance (1.54×–3.22×)".
type TLSAblationResult struct {
	LowBase, LowNoTLS   sim.Time
	HighBase, HighNoTLS sim.Time
}

// LowSpeedup returns the Low-policy improvement from a free TLS switch.
func (r *TLSAblationResult) LowSpeedup() float64 {
	return float64(r.LowBase) / float64(r.LowNoTLS)
}

// HighSpeedup returns the High-policy improvement.
func (r *TLSAblationResult) HighSpeedup() float64 {
	return float64(r.HighBase) / float64(r.HighNoTLS)
}

// RunTLSAblation measures cross-process dIPC calls with the standard
// wrfsbase-based TLS switch and with the paper's proposed optimized TLS
// mode (processes as modules of one TLS segment: zero switch cost).
func RunTLSAblation() *TLSAblationResult {
	base := cost.Default()
	noTLS := *base
	noTLS.TLSSwitch = 0
	// Both Params values are fixed before the sweep starts and only read
	// by the simulations, so the four points can share them.
	pts := []struct {
		p    *cost.Params
		high bool
	}{{base, false}, {&noTLS, false}, {base, true}, {&noTLS, true}}
	means := sweep(len(pts), func(i int) sim.Time {
		return MeasureDIPCParams(pts[i].p, true, pts[i].high, 1).Mean
	})
	return &TLSAblationResult{
		LowBase: means[0], LowNoTLS: means[1],
		HighBase: means[2], HighNoTLS: means[3],
	}
}

// SharedPTAblationResult quantifies the global virtual address space
// (§6.1.3): what the OLTP numbers would look like if dIPC processes kept
// private page tables (and so paid CR3 switches and TLB refills whenever
// the scheduler interleaves them).
type SharedPTAblationResult struct {
	SharedPT  *oltp.Result // real dIPC: one page table
	PrivatePT *oltp.Result // ablated: per-process tables
}

// Penalty returns the throughput loss of giving up the shared table.
func (r *SharedPTAblationResult) Penalty() float64 {
	if r.SharedPT.Throughput == 0 {
		return 0
	}
	return 1 - r.PrivatePT.Throughput/r.SharedPT.Throughput
}

// RunSharedPTAblation compares the two address-space organizations:
// real dIPC with the shared page table, and the PrivatePT ablation
// where the scheduler sees one table per process.
func RunSharedPTAblation(threads int, window sim.Time) *SharedPTAblationResult {
	// The on-disk configuration interleaves threads mid-call (commits
	// block inside the database process), which is when private page
	// tables hurt; the in-memory one barely context-switches.
	cfgs := []oltp.Config{
		{Mode: oltp.ModeDIPC, InMemory: false, Threads: threads, Window: window, Seed: 5},
		{Mode: oltp.ModeDIPC, InMemory: false, Threads: threads, Window: window, Seed: 5,
			PrivatePT: true},
	}
	runs := sweep(len(cfgs), func(i int) *oltp.Result { return oltp.Run(cfgs[i]) })
	return &SharedPTAblationResult{SharedPT: runs[0], PrivatePT: runs[1]}
}

// StealAblationResult quantifies the scheduler's idle-steal rebalancing
// under the IPC-heavy Linux configuration (the transient imbalance the
// paper blames for synchronous-IPC idle time, §7.4).
type StealAblationResult struct {
	WithSteal *oltp.Result
	NoSteal   *oltp.Result
}

// RunStealAblation measures the Linux OLTP configuration with and
// without idle stealing. Without it, wake-affinity clustering strands
// runnable work behind busy CPUs while others idle.
func RunStealAblation(threads int, window sim.Time) *StealAblationResult {
	cfgs := []oltp.Config{
		{Mode: oltp.ModeLinux, InMemory: true, Threads: threads, Window: window, Seed: 5},
		{Mode: oltp.ModeLinux, InMemory: true, Threads: threads, Window: window, Seed: 5,
			DisableSteal: true},
	}
	runs := sweep(len(cfgs), func(i int) *oltp.Result { return oltp.Run(cfgs[i]) })
	return &StealAblationResult{WithSteal: runs[0], NoSteal: runs[1]}
}
