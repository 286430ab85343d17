package oltp

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// TestOLTPRequestSteadyStateAllocs pins the allocation-free request
// path end to end: once a fig8 stack is warm (every thread has made its
// first call through each transport), serving a request allocates
// nothing in any mode — not the client loop, the gateway, the tiers, the
// database, nor the socket or proxy transports between them.
func TestOLTPRequestSteadyStateAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{Mode: mode, InMemory: true, Threads: 16, CPUs: 4, Seed: 1001}
			r, _ := startStack(&cfg)
			defer r.eng.Close()
			// One P and no GC, as in TestCrossCallSteadyStateAllocs: the
			// runtime's per-P caches the engine's coroutine switches use
			// stay warm, so MemStats sees only the request path.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			r.eng.RunUntil(sim.Millis(100))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			done := r.completed
			r.eng.RunUntil(sim.Millis(400))
			runtime.ReadMemStats(&after)
			reqs := r.completed - done
			if reqs < 500 {
				t.Fatalf("only %d requests completed in the measured window, want >= 500", reqs)
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("steady-state request path allocates %.3f objects/request (%d over %d requests), want 0",
					float64(n)/float64(reqs), n, reqs)
			}
		})
	}
}

// steadyAllocs runs warm, then measured, and returns the heap objects
// measured allocated. Like TestOLTPRequestSteadyStateAllocs it holds one
// P and no GC throughout, so MemStats sees only the simulation.
func steadyAllocs(warm, measured func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	measured()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestOpenLoopSteadyStateAllocs pins the open-loop request path: once
// the generator has created its peak of sessions and the gateway's
// request pool is full, a request allocates nothing — not the arrival
// source, the session, the pooled request, the Retrier and Breaker on
// each hop, nor the dropped calls' timeout errors.
func TestOpenLoopSteadyStateAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		t.Run(mode.String(), func(t *testing.T) {
			// A drop rate high enough to fire in the window.
			cfg := openLoopShape(mode, 3, 0.01)
			cfg.Window = sim.Second
			r, gen, _ := startOpenLoop(&cfg)
			defer r.eng.Close()
			var created int
			var offered, drops int64
			n := steadyAllocs(func() {
				r.eng.RunUntil(sim.Millis(400))
				created, offered, drops = gen.Created, gen.Offered, r.rel.Timeouts
			}, func() { r.eng.RunUntil(sim.Millis(440)) })
			if gen.Created != created {
				t.Fatalf("generator created %d sessions in the measured window; warm up longer", gen.Created-created)
			}
			reqs := gen.Offered - offered
			if reqs < 500 {
				t.Fatalf("only %d requests issued in the measured window, want >= 500", reqs)
			}
			if r.rel.Timeouts == drops {
				t.Fatalf("no dropped call in the measured window; the drop path went unmeasured")
			}
			if n != 0 {
				t.Errorf("steady-state open-loop path allocates %.3f objects/request (%d over %d requests), want 0",
					float64(n)/float64(reqs), n, reqs)
			}
		})
	}
}

// TestReplicatedSteadyStateAllocs pins the replicated request path: a
// hedged operation across the rack — the client's attempt and hedge
// timers, the NIC wires, each replica's inbox and tier chain, and the
// completion back at the client — allocates nothing once warm.
func TestReplicatedSteadyStateAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		t.Run(mode.String(), func(t *testing.T) {
			// The perfbench replicas shape: hedging around a 6x-slow
			// replica, with rare per-call slowdowns.
			cfg := ReplicatedConfig{
				Mode: mode, Replicas: 2, Depth: 2, Threads: 2, Clients: 4,
				// The window runs to 140 ms, the end of the measured
				// stretch, so every counter the test reads counts.
				Work: sim.Micros(10), Warmup: sim.Millis(4), Window: sim.Millis(136), Seed: 3,
				Plan: &faults.Plan{Seed: 3, SlowProb: 0.01, SlowBy: sim.Micros(10)},
				Retry: faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2,
					Backoff: sim.Micros(20), MaxBackoff: sim.Micros(160)},
				Policy:        PolicyHedged,
				HedgeFraction: 0.5,
				SlowReplica:   2,
				SlowFactor:    6,
			}
			cfg.applyDefaults()
			h, _, _ := startReplicated(&cfg)
			defer h.cl.Close()
			rel := &h.accs[0].Rel
			var ops, hedges int64
			n := steadyAllocs(func() {
				h.eng.RunUntil(sim.Millis(100))
				ops, hedges = rel.OpsOK+rel.OpsFailed, rel.Hedges
			}, func() { h.eng.RunUntil(sim.Millis(140)) })
			reqs := rel.OpsOK + rel.OpsFailed - ops
			if reqs < 500 {
				t.Fatalf("only %d operations completed in the measured window, want >= 500", reqs)
			}
			if rel.Hedges == hedges {
				t.Fatalf("no hedge fired in the measured window; the hedge path went unmeasured")
			}
			if n != 0 {
				t.Errorf("steady-state replicated path allocates %.3f objects/operation (%d over %d operations), want 0",
					float64(n)/float64(reqs), n, reqs)
			}
		})
	}
}
