package oltp

import (
	"runtime"
	"runtime/debug"
	"testing"

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
