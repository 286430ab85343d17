package oltp

import (
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// runAllocs returns the heap bytes and the heap allocations one call of
// run makes.
func runAllocs(run func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// runBytes returns the heap bytes one call of run allocates.
func runBytes(run func()) uint64 {
	bytes, _ := runAllocs(run)
	return bytes
}

// setupAllocs returns the heap bytes and allocations startStack makes
// for cfg.
func setupAllocs(cfg Config) (bytes, mallocs uint64) {
	var r *rig
	bytes, mallocs = runAllocs(func() { r, _ = startStack(&cfg) })
	r.eng.Close()
	return bytes, mallocs
}

// setupBytes returns the heap bytes startStack allocates for cfg.
func setupBytes(cfg Config) uint64 {
	bytes, _ := setupAllocs(cfg)
	return bytes
}

// TestOLTPSetupBytesPerThread pins that per-run setup pays only for what
// a run touches: each thread and client a fig8 stack adds costs at most
// 1152 B of heap. A thread is one 160-byte allocation; only a thread that
// makes dIPC calls adds dIPC's per-thread state, which carries its CODOMs
// context and APL cache inline; and a closed-loop client sizes its query
// slice once. With the CODOMs context inside every kernel thread, an
// added proc cost 1498 B (Linux) and 1344 B (dIPC, Ideal); since it
// moved into dIPC's state, about 845 B and 907 B (950 B and 976 B
// under the race detector); since a query slot shrank from 40 B to 16 B
// and dIPC's state to two inline KCS frames, 746 B and 715 B (841 B and
// 788 B under the race detector).
func TestOLTPSetupBytesPerThread(t *testing.T) {
	const lo, hi, limit = 16, 256, 1152
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
			// The first large setup in a process also pays one-time
			// runtime costs, such as the goroutine records of its procs,
			// so both sizes are measured after one.
			setupBytes(cfg(hi))
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
// (perfbench's fig8 shape) at about 1.25x what it measured once each
// closed-loop client became one entry of a slice, the Linux request
// socket a field of its transport and a worker's name one concatenation:
// 52 KB (Linux), 39 KB (dIPC) and 24 KB (Ideal), against 53 KB, 41 KB
// and 27 KB before. The first setup in a process also pays one-time
// runtime costs, so the test measures the second.
func TestFig8SetupBytes(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		ceiling uint64
	}{
		{ModeLinux, 65 << 10},
		{ModeDIPC, 48 << 10},
		{ModeIdeal, 30 << 10},
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

// TestFig8SetupAllocs pins the heap allocations of one fig8 setup at
// Threads=16 at about 1.1x what it measured once each closed-loop client
// became one entry of a slice, with its random stream, request and
// operation inline and its query slots carved from one shared array,
// the Linux request socket a field of its transport and a worker's name
// one concatenation: 832 (Linux), 468 (dIPC) and 306 (Ideal), against
// 942, 575 and 413 before. As in TestFig8SetupBytes, the second setup is
// measured.
func TestFig8SetupAllocs(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		ceiling uint64
	}{
		{ModeLinux, 915},
		{ModeDIPC, 515},
		{ModeIdeal, 337},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			cfg := Config{Mode: tc.mode, InMemory: true, Threads: 16, CPUs: 4, Seed: 1001}
			setupAllocs(cfg)
			if _, got := setupAllocs(cfg); got > tc.ceiling {
				t.Errorf("fig8 setup makes %d heap allocations, want <= %d", got, tc.ceiling)
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

// BenchmarkFig8Run runs perfbench's fig8 shape: a closed loop of 16
// clients on 4 CPUs, measured over a 250ms window after the default
// warmup. With -benchmem, B/op is one whole run's bytes, setup included;
// B/req and allocs/req divide them by the requests the run completes,
// the trend of perfbench's fig8 alloc_bytes_per_req and allocs_per_req.
func BenchmarkFig8Run(b *testing.B) {
	benchRuns(b, func(mode Mode) int64 {
		return int64(Run(Config{Mode: mode, InMemory: true, Threads: 16, CPUs: 4, Seed: 1000, Window: sim.Millis(250)}).Ops)
	})
}

// benchRuns benchmarks run, which returns the requests one run of a
// mode completed, under Linux and dIPC, reporting B/req and allocs/req
// over every run's heap bytes and allocations, setup included.
func benchRuns(b *testing.B, run func(Mode) int64) {
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			var reqs int64
			bytes, mallocs := runAllocs(func() {
				for i := 0; i < b.N; i++ {
					reqs += run(mode)
				}
			})
			b.ReportMetric(float64(bytes)/float64(reqs), "B/req")
			b.ReportMetric(float64(mallocs)/float64(reqs), "allocs/req")
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

// BenchmarkOpenLoopRun runs perfbench's openloop shape over its 200ms
// window and reports B/req and allocs/req over the requests that
// completed or failed, the trend of perfbench's openloop
// alloc_bytes_per_req and allocs_per_req.
func BenchmarkOpenLoopRun(b *testing.B) {
	benchRuns(b, func(mode Mode) int64 {
		cfg := openLoopShape(mode, 1000, 0.002)
		cfg.Window = sim.Millis(200)
		return RunOpenLoop(cfg).Rel.Ops()
	})
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
				openLoopSetup(mode)
			}
		})
	}
}

// openLoopSetup is one BenchmarkOpenLoopSetup iteration.
func openLoopSetup(mode Mode) {
	cfg := openLoopShape(mode, 1, 0.002)
	cfg.Warmup, cfg.Window = 1, 1
	RunOpenLoop(cfg)
}

// TestOpenLoopSetupBytes pins the bytes of one BenchmarkOpenLoopSetup
// iteration at about 1.25x what it measured once the Linux request
// socket became a field of its transport and a worker's name one
// concatenation: 36 KB (Linux, 38 KB before) and 28 KB (dIPC). dIPC's
// ceiling stays at 36 KB, since the race detector reads 34 KB there.
// The first run in a process also pays one-time runtime costs, so the
// test measures the second.
func TestOpenLoopSetupBytes(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		ceiling uint64
	}{
		{ModeLinux, 45 << 10},
		{ModeDIPC, 36 << 10},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			run := func() { openLoopSetup(tc.mode) }
			run()
			if got := runBytes(run); got > tc.ceiling {
				t.Errorf("open-loop setup allocates %d B, want <= %d", got, tc.ceiling)
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

// BenchmarkReplicatedRun runs perfbench's replicas shape over its 700ms
// window and reports B/req and allocs/req over the operations that
// completed or failed, the trend of perfbench's replicas
// alloc_bytes_per_req and allocs_per_req.
func BenchmarkReplicatedRun(b *testing.B) {
	benchRuns(b, func(mode Mode) int64 {
		cfg := replicatedShape(mode, 1000)
		cfg.Window = sim.Millis(700)
		return RunReplicated(cfg).Rel.Ops()
	})
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
				replicatedSetup(mode)
			}
		})
	}
}

// replicatedSetup is one BenchmarkReplicatedSetup iteration.
func replicatedSetup(mode Mode) {
	cfg := replicatedShape(mode, 1)
	cfg.Warmup, cfg.Window = sim.Millis(1)+1, 1
	RunReplicated(cfg)
}

// TestReplicatedSetupBytes pins the bytes of one BenchmarkReplicatedSetup
// iteration at about 1.25x what it measured: 59 KB (Linux) once the
// CODOMs context moved from every kernel thread into dIPC's per-thread
// state and the four latency histograms' counters (three machines and
// the merged total) became 32-bit (102 KB before), and 66 KB (dIPC)
// once that state also held two KCS frames inline instead of eight and
// a thread that only enters its process's code got none (86 KB before;
// 107 KB before the move). The first run in a process also pays
// one-time runtime costs, so the test measures the second.
func TestReplicatedSetupBytes(t *testing.T) {
	for _, tc := range []struct {
		mode    Mode
		ceiling uint64
	}{
		{ModeLinux, 72 << 10},
		{ModeDIPC, 80 << 10},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			run := func() { replicatedSetup(tc.mode) }
			run()
			if got := runBytes(run); got > tc.ceiling {
				t.Errorf("replicated setup allocates %d B, want <= %d", got, tc.ceiling)
			}
		})
	}
}
