package oltp

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

func testReplicatedConfig(mode Mode) ReplicatedConfig {
	return ReplicatedConfig{
		Mode:     mode,
		Replicas: 2,
		Depth:    2,
		Threads:  2,
		CPUs:     2,
		Clients:  4,
		Work:     sim.Micros(10),
		Warmup:   sim.Millis(2),
		Window:   sim.Millis(5),
		Seed:     7,
		Retry:    faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2, Backoff: sim.Micros(10)},
	}
}

// TestReplicatedSmoke runs the fault-free replicated rack in every mode
// and checks the basic accounting invariants: work completes, nothing
// fails, and no failovers or hedges happen without faults or hedging.
func TestReplicatedSmoke(t *testing.T) {
	for _, mode := range []Mode{ModeIdeal, ModeLinux, ModeDIPC} {
		res := RunReplicated(testReplicatedConfig(mode))
		if res.Rel.OpsOK == 0 {
			t.Errorf("%v: no operations completed", mode)
		}
		if res.Rel.OpsFailed != 0 {
			t.Errorf("%v: %d operations failed fault-free", mode, res.Rel.OpsFailed)
		}
		if res.Availability != 1 {
			t.Errorf("%v: availability %v fault-free", mode, res.Availability)
		}
		if res.Rel.Hedges != 0 || res.Rel.HedgeWins != 0 {
			t.Errorf("%v: hedges counted under PolicyFailover", mode)
		}
		if res.Rel.Suspicions != 0 {
			t.Errorf("%v: %d suspicions fault-free", mode, res.Rel.Suspicions)
		}
		if res.Rel.Failovers != 0 {
			t.Errorf("%v: %d failovers fault-free under PolicyFailover", mode, res.Rel.Failovers)
		}
	}
}

// TestReplicatedKillFailover is the runner-level half of the failover
// acceptance: killing one replica's front barely dents a replicated
// set, while a single instance goes dark for the whole outage.
func TestReplicatedKillFailover(t *testing.T) {
	kill := &faults.Plan{Events: []faults.Event{
		{At: sim.Millis(3), Kind: faults.KillProc, Target: "r1"},
		{At: sim.Millis(6), Kind: faults.RestartProc, Target: "r1"},
	}}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		rep := testReplicatedConfig(mode)
		rep.Plan = kill
		solo := testReplicatedConfig(mode)
		solo.Replicas = 1
		solo.Plan = kill
		r2 := RunReplicated(rep)
		r1 := RunReplicated(solo)
		if r2.Availability <= r1.Availability {
			t.Errorf("%v: replicated availability %v not above single-instance %v",
				mode, r2.Availability, r1.Availability)
		}
		if r2.Rel.Failovers == 0 {
			t.Errorf("%v: no failovers recorded during the outage", mode)
		}
		if r2.Rel.Suspicions == 0 || r2.Rel.Detections == 0 {
			t.Errorf("%v: detector never suspected the killed replica (suspicions %d, detections %d)",
				mode, r2.Rel.Suspicions, r2.Rel.Detections)
		}
		if r2.Rel.FalseSuspects != 0 {
			t.Errorf("%v: %d false suspicions with a clean kill plan", mode, r2.Rel.FalseSuspects)
		}
	}
}

// TestReplicatedHedging pins hedging's contract under a slow replica:
// hedges are issued, some win, and the hedged p999 beats round-robin
// without hedging on the same topology.
func TestReplicatedHedging(t *testing.T) {
	mk := func(policy RoutePolicy) *ReplicatedResult {
		cfg := testReplicatedConfig(ModeDIPC)
		cfg.Policy = policy
		cfg.SlowReplica = 2
		cfg.SlowFactor = 6
		cfg.HedgeFraction = 0.25
		return RunReplicated(cfg)
	}
	hedge := mk(PolicyHedged)
	plain := mk(PolicyRoundRobin)
	if hedge.Rel.Hedges == 0 {
		t.Fatalf("no hedges issued under PolicyHedged with a slow replica")
	}
	if hedge.Rel.HedgeWins == 0 {
		t.Errorf("no hedge ever won against a %vx slow replica", 6)
	}
	if hedge.P999 >= plain.P999 {
		t.Errorf("hedged p999 %v not below round-robin p999 %v", hedge.P999, plain.P999)
	}
	if hedge.Rel.HedgeWins+hedge.Rel.HedgeLosses > hedge.Rel.Hedges {
		t.Errorf("hedge win/loss accounting exceeds hedges issued: %d+%d > %d",
			hedge.Rel.HedgeWins, hedge.Rel.HedgeLosses, hedge.Rel.Hedges)
	}
}
