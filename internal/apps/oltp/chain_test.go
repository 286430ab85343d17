package oltp

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// chainCfg is a fast test configuration.
func chainCfg(mode Mode, depth int) ChainConfig {
	return ChainConfig{
		Mode: mode, Depth: depth, Threads: 4, Clients: 4,
		Warmup: sim.Millis(10), Window: sim.Millis(30), Seed: 5,
	}
}

func TestChainModesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	const depth = 3
	lin := RunChain(chainCfg(ModeLinux, depth))
	dip := RunChain(chainCfg(ModeDIPC, depth))
	ide := RunChain(chainCfg(ModeIdeal, depth))
	if lin.Ops == 0 || dip.Ops == 0 || ide.Ops == 0 {
		t.Fatalf("empty window: linux=%d dipc=%d ideal=%d ops", lin.Ops, dip.Ops, ide.Ops)
	}
	// The Fig. 8 ordering must hold along the depth axis too.
	if !(lin.Throughput < dip.Throughput && dip.Throughput <= ide.Throughput*1.001) {
		t.Fatalf("throughput ordering violated: linux=%.0f dipc=%.0f ideal=%.0f",
			lin.Throughput, dip.Throughput, ide.Throughput)
	}
	if !(lin.AvgLatency > dip.AvgLatency) {
		t.Fatalf("latency ordering violated: linux=%v dipc=%v", lin.AvgLatency, dip.AvgLatency)
	}
}

func TestChainCallsPerOpTracksDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC, ModeIdeal} {
		for _, depth := range []int{1, 3} {
			r := RunChain(chainCfg(mode, depth))
			// Every operation crosses each of the `depth` hops exactly
			// once; in-flight requests at the window edges blur the
			// average slightly.
			if r.CallsPerOp < float64(depth)*0.8 || r.CallsPerOp > float64(depth)*1.2 {
				t.Errorf("%v depth=%d: calls/op = %.2f, want ~%d",
					mode, depth, r.CallsPerOp, depth)
			}
		}
	}
}

func TestChainDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	key := func(r *ChainResult) string {
		return fmt.Sprintf("%d %.6f %d %.4f", r.Ops, r.Throughput, int64(r.AvgLatency), r.CallsPerOp)
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		a := RunChain(chainCfg(mode, 2))
		b := RunChain(chainCfg(mode, 2))
		if key(a) != key(b) {
			t.Fatalf("%v: repeat run diverged:\n%s\nvs\n%s", mode, key(a), key(b))
		}
	}
}

func TestChainDefaultsApplied(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	r := RunChain(ChainConfig{Mode: ModeIdeal, Window: sim.Millis(20), Warmup: sim.Millis(5)})
	c := r.Config
	if c.Depth != 1 || c.Threads != 8 || c.CPUs != 4 || c.Clients != 8 || c.ReqBytes != 256 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if r.Ops == 0 || r.Throughput == 0 {
		t.Fatalf("no work measured: %+v", r)
	}
}

// TestChainFaultsCountsWindowStartCompletions pins the op-level window
// of the fault-aware runner to the fault-free one. Clients gate op
// outcomes on completion time, so a completion landing exactly at the
// window start belongs to the window; at this point (dIPC, depth 1, 8
// threads, seed 5) some do, and they must neither be dropped from the
// count nor leave their latency behind in the mean.
func TestChainFaultsCountsWindowStartCompletions(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	cfg := ChainConfig{Mode: ModeDIPC, Depth: 1, Threads: 8, Window: sim.Millis(100), Seed: 5}
	plain := RunChain(cfg)
	faulty := RunChainFaults(ChainFaultsConfig{ChainConfig: cfg})
	// The fault-free closed-loop count at this point, window-start
	// completions included.
	const wantOps = 9368
	if plain.Ops != wantOps {
		t.Fatalf("RunChain counted %d ops, want %d", plain.Ops, wantOps)
	}
	if got, want := faulty.Rel.Ops(), int64(plain.Ops); got != want {
		t.Fatalf("fault-free RunChainFaults counted %d ops, RunChain %d", got, want)
	}
	if faulty.Rel.OpsFailed != 0 || faulty.AvgLatency != plain.AvgLatency {
		t.Fatalf("fault-free runs disagree: failed=%d latency %v vs %v",
			faulty.Rel.OpsFailed, faulty.AvgLatency, plain.AvgLatency)
	}
	if got := faulty.Goodput * cfg.Window.Seconds(); int64(got+0.5) != int64(plain.Ops) {
		t.Fatalf("goodput %.1f ops/s does not cover %d ops", faulty.Goodput, plain.Ops)
	}
}
