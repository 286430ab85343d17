package oltp

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// setupBytes returns the heap bytes startStack allocates for cfg.
func setupBytes(cfg Config) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, _ := startStack(&cfg)
	runtime.ReadMemStats(&after)
	r.eng.Close()
	return after.TotalAlloc - before.TotalAlloc
}

// TestOLTPSetupBytesPerThread pins that per-run setup pays only for what
// a run touches: each thread and client a fig8 stack adds costs at most
// 4 KiB of heap. A thread that never runs CODOMs code holds no
// capability-stack slots, the database stores only the columns its
// queries read, and page-table nodes carry only their level's entries.
func TestOLTPSetupBytesPerThread(t *testing.T) {
	const lo, hi, limit = 16, 256, 4 << 10
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		t.Run(mode.String(), func(t *testing.T) {
			// One unit of Threads adds a client plus a web worker; under
			// Linux it also adds a PHP and a database service thread.
			procsPerThread := 2
			if mode == ModeLinux {
				procsPerThread = 4
			}
			cfg := func(threads int) Config {
				return Config{Mode: mode, InMemory: true, Threads: threads, CPUs: 4, Seed: 1001}
			}
			small, large := setupBytes(cfg(lo)), setupBytes(cfg(hi))
			added := (hi - lo) * procsPerThread
			perProc := (float64(large) - float64(small)) / float64(added)
			t.Logf("%d B at Threads=%d, %d B at Threads=%d: %.0f B per added proc",
				small, lo, large, hi, perProc)
			if perProc > limit {
				t.Errorf("setup allocates %.0f B per added proc, want <= %d", perProc, limit)
			}
		})
	}
}

// BenchmarkStartStack measures one fig8 setup: building the machine, the
// tiers, the database, the web workers and the clients, then closing the
// engine. Run with -benchmem to read setup bytes per run.
func BenchmarkStartStack(b *testing.B) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{Mode: mode, InMemory: true, Threads: 16, CPUs: 4, Seed: 1001}
				r, _ := startStack(&cfg)
				r.eng.Close()
			}
		})
	}
}

// openLoopShape is perfbench's openloop workload: 80k req/s of
// 4-request sessions through a drop-tail gateway into a depth-2 chain,
// a Breaker inside a Retrier on every hop, and per-call drops at
// dropProb.
func openLoopShape(mode Mode, seed uint64, dropProb float64) OpenLoopConfig {
	return OpenLoopConfig{
		ChainFaultsConfig: ChainFaultsConfig{
			ChainConfig: ChainConfig{Mode: mode, Depth: 2, Threads: 8, CPUs: 4,
				Work: sim.Micros(10), Warmup: sim.Millis(5), Seed: seed},
			Plan:  &faults.Plan{Seed: seed, DropProb: dropProb},
			Retry: faults.RetryPolicy{Deadline: sim.Micros(500), MaxRetries: 1, Backoff: sim.Micros(20)},
		},
		MeanGap:  4 * sim.Second / 80_000,
		Sessions: 512,
		Requests: 4,
		Deadline: sim.Millis(2),
		Gateway:  GatewayConfig{Policy: AdmitFIFO, Capacity: 64},
		Breaker:  &BreakerConfig{},
	}
}

// BenchmarkOpenLoopSetup measures one open-loop setup: a RunOpenLoop
// of perfbench's openloop shape with a 1ns window, so nothing but
// building the chain, the gateway and the load generator (and closing
// the engine) costs time. Sessions are spawned as arrivals need them,
// so the 512-session pool costs nothing here.
func BenchmarkOpenLoopSetup(b *testing.B) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := openLoopShape(mode, 1, 0.002)
				cfg.Warmup, cfg.Window = 1, 1
				RunOpenLoop(cfg)
			}
		})
	}
}
