package experiments

import (
	"repro/internal/apps/oltp"
	"repro/internal/sim"
)

// The throughput-vs-cores OLTP scaling study. The paper fixes the
// evaluation machine at four cores (§7.1) and only gestures at how the
// configurations would scale; this experiment sweeps the simulated CPU
// count at a fixed per-component thread count and compares the same
// three stacks as Fig. 8 — the UNIX-socket RPC baseline (Linux), dIPC,
// and the unsafe upper bound (Ideal). The interesting question is
// whether dIPC's advantage survives when the baseline gets more cores to
// hide its IPC idle time in.

// Fig8ScalingCell is one point of the curve.
type Fig8ScalingCell struct {
	Mode   oltp.Mode
	CPUs   int
	Result *oltp.Result
}

// Fig8ScalingResult holds the throughput-vs-cores curves.
type Fig8ScalingResult struct {
	Cells []Fig8ScalingCell
}

// Fig8ScalingCPUs is the core axis of the scaling extension.
var Fig8ScalingCPUs = []int{1, 2, 4, 6, 8}

// RunFig8Scaling sweeps the machine's CPU count for each mode at a fixed
// thread count on the in-memory database (the configuration where IPC
// costs, not the disk, bound throughput). Every (mode, cores) point is
// an independent simulation and runs on the sweep harness.
func RunFig8Scaling(cpus []int, threads int, window sim.Time) *Fig8ScalingResult {
	modes := []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal}
	cells := sweep(len(modes)*len(cpus), func(i int) Fig8ScalingCell {
		mode, nc := modes[i/len(cpus)], cpus[i%len(cpus)]
		r := oltp.Run(oltp.Config{
			Mode: mode, InMemory: true, Threads: threads, CPUs: nc, Window: window, Seed: 5,
		})
		return Fig8ScalingCell{Mode: mode, CPUs: nc, Result: r}
	})
	return &Fig8ScalingResult{Cells: cells}
}

// Throughput returns the cell's ops/min (0 if absent).
func (r *Fig8ScalingResult) Throughput(mode oltp.Mode, cpus int) float64 {
	for _, c := range r.Cells {
		if c.Mode == mode && c.CPUs == cpus {
			return c.Result.Throughput
		}
	}
	return 0
}

// ScalingFactor returns a mode's throughput at the largest core count of
// the sweep as a multiple of its single-smallest-count throughput.
func (r *Fig8ScalingResult) ScalingFactor(mode oltp.Mode) float64 {
	minC, maxC := 0, 0
	for _, c := range r.Cells {
		if c.Mode != mode {
			continue
		}
		if minC == 0 || c.CPUs < minC {
			minC = c.CPUs
		}
		if c.CPUs > maxC {
			maxC = c.CPUs
		}
	}
	lo := r.Throughput(mode, minC)
	if lo == 0 {
		return 0
	}
	return r.Throughput(mode, maxC) / lo
}
