package core

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// crossCallRig is a minimal two-process dIPC setup driving the proxy
// call path directly: a caller process importing one entry per hop of a
// callee chain. Depth 1 is the plain cross-process call of Fig. 5;
// deeper chains nest proxied calls the way the chain/oltp scenarios do.
type crossCallRig struct {
	eng  *sim.Engine
	m    *kernel.Machine
	rt   *Runtime
	peer *kernel.Process // first callee process
}

// buildCrossCallRig wires depth processes into a call chain behind
// published entries. The returned run function spawns a caller thread,
// imports the chain head, executes warmup+rounds calls and hands the
// measured section to fn (called right before and after the rounds).
func buildCrossCallRig(tb testing.TB, high bool, depth int) (*crossCallRig, func(warmup, rounds int, before, after func())) {
	eng := sim.NewEngine(11)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	rt := NewRuntime(m)
	caller := rt.NewProcess("caller")

	pol := PolicyLow
	if high {
		pol = PolicyHigh
	}
	sig := Signature{InRegs: 2, OutRegs: 1, StackBytes: 64}

	// Build the chain back to front: hop i calls hop i+1.
	procs := make([]*kernel.Process, depth)
	for i := range procs {
		procs[i] = rt.NewProcess("svc" + strconv.Itoa(i))
	}
	for i := depth - 1; i >= 0; i-- {
		i := i
		m.Spawn(procs[i], "init", nil, func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				tb.Fatal(err)
			}
			var next *ImportedEntry
			if i+1 < depth {
				ents, err := rt.MustImport(t, "/hop"+strconv.Itoa(i+1), []EntryDesc{{
					Name: "f", Sig: sig, Policy: pol,
				}})
				if err != nil {
					tb.Fatal(err)
				}
				next = ents[0]
			}
			eh, err := rt.EntryRegister(t, rt.DomDefault(t), []EntryDesc{{
				Name: "f",
				Fn: func(t *kernel.Thread, in *Args) *Args {
					if next != nil {
						out, err := next.Call(t, in)
						if err != nil {
							panic(err)
						}
						return out
					}
					return in
				},
				Sig:    sig,
				Policy: pol,
			}})
			if err != nil {
				tb.Fatal(err)
			}
			if err := rt.Publish(t, "/hop"+strconv.Itoa(i), eh); err != nil {
				tb.Fatal(err)
			}
		})
		eng.Run()
	}

	rig := &crossCallRig{eng: eng, m: m, rt: rt, peer: procs[0]}
	run := func(warmup, rounds int, before, after func()) {
		m.Spawn(caller, "caller", m.CPUs[0], func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				tb.Fatal(err)
			}
			ents, err := rt.MustImport(t, "/hop0", []EntryDesc{{
				Name: "f", Sig: sig, Policy: pol,
			}})
			if err != nil {
				tb.Fatal(err)
			}
			ent := ents[0]
			args := &Args{Regs: []uint64{1, 2}, StackBytes: 64}
			for i := 0; i < warmup; i++ {
				if _, err := ent.Call(t, args); err != nil {
					tb.Fatal(err)
				}
			}
			if before != nil {
				before()
			}
			for i := 0; i < rounds; i++ {
				if _, err := ent.Call(t, args); err != nil {
					tb.Fatal(err)
				}
			}
			if after != nil {
				after()
			}
		})
		eng.Run()
	}
	return rig, run
}

// benchCrossCall reports host ns/op and allocs/op for one proxied
// cross-process dIPC call at the given policy and chain depth.
func benchCrossCall(b *testing.B, high bool, depth int) {
	_, run := buildCrossCallRig(b, high, depth)
	b.ReportAllocs()
	run(64, b.N, func() { b.ResetTimer() }, func() { b.StopTimer() })
}

// BenchmarkCrossCall is the call-path microbenchmark the perf-smoke job
// tracks: one cross-process proxied call, Low policy (the Fig. 5 28x
// bar). Steady state must be allocation-free.
func BenchmarkCrossCall(b *testing.B) { benchCrossCall(b, false, 1) }

// BenchmarkCrossCallHigh is the High (mutual isolation) policy variant,
// which additionally exercises the stack-copy and DCS-switch paths.
func BenchmarkCrossCallHigh(b *testing.B) { benchCrossCall(b, true, 1) }

// BenchmarkCrossCallDeep nests eight proxied calls per op, the shape of
// the chain/oltp scenarios' tiered call stacks.
func BenchmarkCrossCallDeep(b *testing.B) { benchCrossCall(b, false, 8) }

// TestCrossCallSteadyStateAllocs asserts the acceptance criterion
// directly: after warmup, the proxy call path performs zero host
// allocations per call, at both policies and at chain depth.
func TestCrossCallSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		high  bool
		depth int
	}{
		{"low-depth1", false, 1},
		{"high-depth1", true, 1},
		{"low-depth8", false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSteadyStateAllocs(t, tc.high, tc.depth) })
	}
}

// TestDeepChainSteadyStateAllocs runs the crosscall chain 40 deep, as
// scripts/reach.sh does. Forty domains overflow the 32-entry APL cache,
// so every call misses it somewhere on the way down and refills a slot;
// a miss must cost a slow-path refill, never a host allocation.
func TestDeepChainSteadyStateAllocs(t *testing.T) {
	checkSteadyStateAllocs(t, false, 40)
}

// checkSteadyStateAllocs fails t unless calls into a chain depth deep
// allocate nothing once warm.
func checkSteadyStateAllocs(t *testing.T, high bool, depth int) {
	_, run := buildCrossCallRig(t, high, depth)
	// The engine hands control between goroutines over channels,
	// and the runtime keeps the sudogs those handoffs park on in
	// per-P caches. A GC cycle empties the caches, and a goroutine
	// moving to another P can find that P's cache empty; either
	// way the refill allocates, and MemStats would charge it to
	// the call path. One P and no GC keep the caches warm.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 512
	var before, after runtime.MemStats
	run(64, rounds,
		func() { runtime.ReadMemStats(&before) },
		func() { runtime.ReadMemStats(&after) })
	perOp := float64(after.Mallocs-before.Mallocs) / rounds
	if perOp > 0 {
		t.Errorf("steady-state cross-call allocates %.3f objects/op (total %d over %d calls), want 0",
			perOp, after.Mallocs-before.Mallocs, rounds)
	}
}
