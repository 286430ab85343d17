package oltp

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// killPlan kills every named process target at once.
func killPlan(at sim.Time, targets ...string) *faults.Plan {
	p := &faults.Plan{}
	for _, tg := range targets {
		p.Events = append(p.Events, faults.Event{At: at, Kind: faults.KillProc, Target: tg})
	}
	return p
}

// installErr runs run and returns what it panicked with: the runners
// panic when a plan names a target the wiring never registered.
func installErr(run func()) (err any) {
	defer func() { err = recover() }()
	run()
	return nil
}

// TestChainFaultTargetNames pins the process targets the single-machine
// chain registers per mode: "gateway" and "svc1".."svcN", or only
// "chain-app" under Ideal, whose tiers share one process. A plan
// killing every documented target must install; one naming a target
// the mode lacks must be refused.
func TestChainFaultTargetNames(t *testing.T) {
	const depth = 3
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		good := []string{"chain-app"}
		bad := []string{"gateway", "svc1", "r1", "r1.svc1"}
		if mode != ModeIdeal {
			good = []string{"gateway"}
			for j := 1; j <= depth; j++ {
				good = append(good, fmt.Sprintf("svc%d", j))
			}
			bad = []string{"chain-app", fmt.Sprintf("svc%d", depth+1), "r1", "r1.svc1"}
		}
		run := func(plan *faults.Plan) func() {
			return func() {
				RunChainFaults(ChainFaultsConfig{
					ChainConfig: ChainConfig{Mode: mode, Depth: depth, Threads: 2,
						Warmup: sim.Millis(1), Window: sim.Millis(1), Seed: 1},
					Plan: plan,
				})
			}
		}
		if err := installErr(run(killPlan(sim.Micros(500), good...))); err != nil {
			t.Errorf("%v: killing %v: %v", mode, good, err)
		}
		for _, tg := range bad {
			if installErr(run(killPlan(sim.Micros(500), tg))) == nil {
				t.Errorf("%v: a plan killing %q installed; the mode has no such target", mode, tg)
			}
		}
	}
}

// TestReplicatedFaultTargetNames is the replicated rack's counterpart:
// replica i's front is "r<i>" and its tiers "r<i>.svc<j>", except under
// Ideal, where the front is the only process.
func TestReplicatedFaultTargetNames(t *testing.T) {
	const replicas, depth = 2, 2
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		var good []string
		for i := 1; i <= replicas; i++ {
			good = append(good, fmt.Sprintf("r%d", i))
			if mode != ModeIdeal {
				for j := 1; j <= depth; j++ {
					good = append(good, fmt.Sprintf("r%d.svc%d", i, j))
				}
			}
		}
		bad := []string{"gateway", "svc1", fmt.Sprintf("r%d", replicas+1),
			fmt.Sprintf("r1.svc%d", depth+1)}
		if mode == ModeIdeal {
			bad = append(bad, "r1.svc1")
		}
		run := func(plan *faults.Plan) func() {
			return func() {
				RunReplicated(ReplicatedConfig{Mode: mode, Replicas: replicas, Depth: depth,
					Warmup: sim.Millis(2), Window: sim.Millis(1), Seed: 1, Plan: plan})
			}
		}
		if err := installErr(run(killPlan(sim.Micros(1500), good...))); err != nil {
			t.Errorf("%v: killing %v: %v", mode, good, err)
		}
		for _, tg := range bad {
			if installErr(run(killPlan(sim.Micros(1500), tg))) == nil {
				t.Errorf("%v: a plan killing %q installed; the rack has no such target", mode, tg)
			}
		}
	}
}
