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
// 4 KiB of heap. A thread is one allocation that carries its CODOMs
// context and APL cache inline, and a closed-loop client sizes its
// query slice once.
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

// TestFig8SetupBytes pins the fixed cost of one fig8 setup at Threads=16
// (perfbench's fig8 shape) at about 1.25x what it measured when the
// database's stock and order columns became uint8 and int32 and the page
// table became a sorted list of mapped runs. Before that change the same
// setups allocated 199 KB (Linux), 211 KB (dIPC) and 137 KB (Ideal);
// after it, 118 KB, 82 KB and 64 KB. The first setup in a process also
// pays one-time runtime costs, so the test measures the second.
func TestFig8SetupBytes(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		ceiling uint64
	}{
		{ModeLinux, 148 << 10},
		{ModeDIPC, 102 << 10},
		{ModeIdeal, 80 << 10},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			cfg := Config{Mode: tc.mode, InMemory: true, Threads: 16, CPUs: 4, Seed: 1001}
			setupBytes(cfg)
			if got := setupBytes(cfg); got > tc.ceiling {
				t.Errorf("fig8 setup allocates %d B, want <= %d", got, tc.ceiling)
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

// replicatedShape is perfbench's replicas workload: two replicas of a
// depth-2 chain behind a hedging Router, replica 2 slowed 6x, per-call
// slowdowns at 1%, with the health detector probing.
func replicatedShape(mode Mode, seed uint64) ReplicatedConfig {
	return ReplicatedConfig{
		Mode: mode, Replicas: 2, Depth: 2, Threads: 2, Clients: 4,
		Work: sim.Micros(10), Warmup: sim.Millis(4), Seed: seed, Shards: 2,
		Plan: &faults.Plan{Seed: seed, SlowProb: 0.01, SlowBy: sim.Micros(10)},
		Retry: faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2,
			Backoff: sim.Micros(20), MaxBackoff: sim.Micros(160)},
		Policy:        PolicyHedged,
		HedgeFraction: 0.5,
		SlowReplica:   2,
		SlowFactor:    6,
	}
}

// BenchmarkReplicatedSetup measures one replicated-rack setup: a
// RunReplicated of perfbench's replicas shape whose warmup just outlasts
// the 1ms boot and whose window is 1ns, so building the machines, the
// replicas, the router and the clients (and closing the engine) is
// almost all it costs.
func BenchmarkReplicatedSetup(b *testing.B) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := replicatedShape(mode, 1)
				cfg.Warmup, cfg.Window = sim.Millis(1)+1, 1
				RunReplicated(cfg)
			}
		})
	}
}
