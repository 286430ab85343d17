// Package kernel simulates the operating system underneath the IPC
// benchmarks: a multi-core machine with per-CPU run queues, context
// switches, inter-processor interrupts, idle accounting, system-call
// costing, futexes and processes.
//
// The kernel charges every modeled activity into the stats.Block
// categories of the paper's Figure 2, so breakdown figures come straight
// out of the accounting. Each Thread carries the sim.Proc its code runs
// on; the scheduler decides which thread occupies which CPU, and all
// costs come from cost.Params.
package kernel

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Machine is a simulated multi-core host running one kernel instance.
type Machine struct {
	Eng    *sim.Engine
	P      *cost.Params
	Arch   *codoms.System // CODOMs configuration (domains and APLs)
	CPUs   []*CPU
	Global *mem.GlobalSpace // global VA space for dIPC processes (§6.1.3)

	nextPID int
	nextTID int
	procs   map[int]*Process

	// StealOnIdle enables pulling a runnable thread from the longest
	// run queue when a CPU would otherwise idle. Linux's CFS does this;
	// it is imperfect on purpose (the paper attributes part of the IPC
	// idle time to transient scheduler imbalance, §7.4).
	StealOnIdle bool
}

// NewMachine boots a machine with ncpus CPUs.
func NewMachine(eng *sim.Engine, p *cost.Params, ncpus int) *Machine {
	if ncpus <= 0 {
		ncpus = 1
	}
	m := &Machine{
		Eng:         eng,
		P:           p,
		Arch:        codoms.NewSystem(),
		Global:      mem.NewGlobalSpace(mem.Addr(1)<<32, mem.Addr(1)<<46, mem.DefaultBlockSize),
		procs:       make(map[int]*Process),
		StealOnIdle: true,
	}
	for i := 0; i < ncpus; i++ {
		m.CPUs = append(m.CPUs, &CPU{ID: i, m: m})
	}
	return m
}

// SyncIdle folds the in-progress idle periods of all CPUs into their
// accounting, so snapshots taken now are consistent.
func (m *Machine) SyncIdle() {
	now := m.Eng.Now()
	for _, c := range m.CPUs {
		if c.cur == nil && now > c.idleSince {
			c.Acct.Add(stats.BlockIdle, now-c.idleSince)
			c.idleSince = now
		}
	}
}

// Snapshot returns the machine-wide accounting breakdown (sum over CPUs).
func (m *Machine) Snapshot() stats.Breakdown {
	m.SyncIdle()
	var bd stats.Breakdown
	for _, c := range m.CPUs {
		bd.AddAll(c.Acct)
	}
	return bd
}

// CPUSnapshots returns per-CPU breakdowns.
func (m *Machine) CPUSnapshots() []stats.Breakdown {
	m.SyncIdle()
	out := make([]stats.Breakdown, len(m.CPUs))
	for i, c := range m.CPUs {
		out[i] = c.Acct
	}
	return out
}

// leastLoadedCPU returns the CPU with the shortest queue, preferring idle
// CPUs and breaking ties by ID for determinism.
func (m *Machine) leastLoadedCPU() *CPU {
	best := m.CPUs[0]
	bestLoad := best.load()
	for _, c := range m.CPUs[1:] {
		if l := c.load(); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("machine(%d cpus, %d procs)", len(m.CPUs), len(m.procs))
}
