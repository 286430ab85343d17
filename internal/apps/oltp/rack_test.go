package oltp

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// ringKill is a 4-machine ring whose svc2 — on a different shard than
// the clients whenever shards > 1 — dies mid-window with no restart.
func ringKill(shards int) RingConfig {
	return RingConfig{
		Machines: 4, CPUs: 2, Workers: 2, Clients: 8, ReqBytes: 4096,
		Work: sim.Micros(5), Window: sim.Millis(6), Warmup: sim.Millis(2),
		Seed: 5, Shards: shards,
		Plan: &faults.Plan{Seed: 5, Events: []faults.Event{
			{At: sim.Millis(4), Kind: faults.KillProc, Target: "svc2"},
		}},
		Retry: faults.RetryPolicy{Deadline: sim.Micros(150), MaxRetries: 1, Backoff: sim.Micros(10)},
	}
}

// TestRackChaosKillCrossShard kills a service tier that lives on a
// different shard than the clients, mid-window, with no restart. The
// clients must observe errors (deadline expiries), not hangs — the run
// completes and both successes and failures are counted — and the
// outcome must be identical at shards=1, 2 and 4: crash unwinding may
// not depend on which host core the dead machine simulates on.
func TestRackChaosKillCrossShard(t *testing.T) {
	ref := RunRing(ringKill(1))
	if ref.Rel.OpsOK == 0 {
		t.Fatal("no successful operations before the kill")
	}
	if ref.Rel.OpsFailed == 0 {
		t.Fatal("killing a mid-ring tier produced no client-visible failures")
	}
	if ref.Rel.Timeouts == 0 {
		t.Fatal("cross-machine failures should surface as deadline expiries")
	}
	if ref.Rel.Drops == 0 {
		t.Fatal("the dead tier should be discarding deliveries")
	}
	for _, shards := range []int{2, 4} {
		r := RunRing(ringKill(shards))
		if r.Rel != ref.Rel {
			t.Errorf("shards=%d reliability diverged:\n got %+v\nwant %+v", shards, r.Rel, ref.Rel)
		}
		if r.Merged.Ops != ref.Merged.Ops || r.Merged.Latency != ref.Merged.Latency {
			t.Errorf("shards=%d ops/latency diverged: got (%d, %v), want (%d, %v)",
				shards, r.Merged.Ops, r.Merged.Latency, ref.Merged.Ops, ref.Merged.Latency)
		}
	}
}

// TestRackChaosConservationLaws checks counters that must balance in
// every window of both rack runners, faults or not: each successful
// operation is recorded exactly once in the latency histogram, an
// operation retries only after an attempt, and a hedge resolves at most
// once.
func TestRackChaosConservationLaws(t *testing.T) {
	type lawCase struct {
		name string
		run  func() RackResult
	}
	var cases []lawCase
	for _, shards := range []int{1, 2} {
		shards := shards
		cases = append(cases, lawCase{fmt.Sprintf("ring/shards=%d", shards),
			func() RackResult { return *RunRing(ringKill(shards)) }})
	}
	for _, policy := range []RoutePolicy{PolicyHedged, PolicyFailover} {
		policy := policy
		cases = append(cases, lawCase{"replicated/" + policy.String(), func() RackResult {
			cfg := testReplicatedConfig(ModeDIPC)
			cfg.Policy = policy
			cfg.Plan = &faults.Plan{Events: []faults.Event{{At: sim.Millis(3), Kind: faults.KillProc, Target: "r1"}}}
			return RunReplicated(cfg).RackResult
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.run()
			if r.Rel.OpsOK == 0 {
				t.Fatal("no successful operations")
			}
			if n := r.Merged.Hist.Count(); n != r.Merged.Ops || n != r.Rel.OpsOK {
				t.Errorf("histogram count %d, ops %d, ok ops %d: want all equal", n, r.Merged.Ops, r.Rel.OpsOK)
			}
			if r.Rel.Retries > r.Rel.Attempts {
				t.Errorf("retries %d exceed attempts %d", r.Rel.Retries, r.Rel.Attempts)
			}
			if r.Rel.HedgeWins+r.Rel.HedgeLosses > r.Rel.Hedges {
				t.Errorf("hedge wins %d + losses %d exceed hedges %d", r.Rel.HedgeWins, r.Rel.HedgeLosses, r.Rel.Hedges)
			}
		})
	}
}
