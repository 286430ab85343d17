package oltp

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runChain runs a fast fault-free test configuration.
func runChain(mode Mode, depth int) *ChainFaultsResult {
	return RunChainFaults(ChainFaultsConfig{ChainConfig: ChainConfig{
		Mode: mode, Depth: depth, Threads: 4, Clients: 4,
		Warmup: sim.Millis(10), Window: sim.Millis(30), Seed: 5,
	}})
}

func TestChainModesOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	const depth = 3
	lin := runChain(ModeLinux, depth)
	dip := runChain(ModeDIPC, depth)
	ide := runChain(ModeIdeal, depth)
	if lin.Rel.Ops() == 0 || dip.Rel.Ops() == 0 || ide.Rel.Ops() == 0 {
		t.Fatalf("empty window: linux=%d dipc=%d ideal=%d ops", lin.Rel.Ops(), dip.Rel.Ops(), ide.Rel.Ops())
	}
	// The Fig. 8 ordering must hold along the depth axis too.
	if !(lin.Goodput < dip.Goodput && dip.Goodput <= ide.Goodput*1.001) {
		t.Fatalf("throughput ordering violated: linux=%.0f dipc=%.0f ideal=%.0f",
			lin.Goodput, dip.Goodput, ide.Goodput)
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
			r := runChain(mode, depth)
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
	key := func(r *ChainFaultsResult) string {
		return fmt.Sprintf("%d %.6f %d %.4f", r.Rel.Ops(), r.Goodput, int64(r.AvgLatency), r.CallsPerOp)
	}
	for _, mode := range []Mode{ModeLinux, ModeDIPC} {
		a := runChain(mode, 2)
		b := runChain(mode, 2)
		if key(a) != key(b) {
			t.Fatalf("%v: repeat run diverged:\n%s\nvs\n%s", mode, key(a), key(b))
		}
	}
}

func TestChainDefaultsApplied(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	r := RunChainFaults(ChainFaultsConfig{ChainConfig: ChainConfig{
		Mode: ModeIdeal, Window: sim.Millis(20), Warmup: sim.Millis(5)}})
	c := r.Config
	if c.Depth != 1 || c.Threads != 8 || c.CPUs != 4 || c.Clients != 8 || c.ReqBytes != 256 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if r.Rel.Ops() == 0 || r.Goodput == 0 {
		t.Fatalf("no work measured: %+v", r)
	}
}

// TestChainFaultsCountsWindowStartCompletions pins the fault-free op
// window. Clients gate op outcomes on completion time, so a completion
// landing exactly at the window start belongs to the window; at this
// point (dIPC, depth 1, 8 threads, seed 5) some do, and they must not be
// dropped from the count.
func TestChainFaultsCountsWindowStartCompletions(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	cfg := ChainConfig{Mode: ModeDIPC, Depth: 1, Threads: 8, Window: sim.Millis(100), Seed: 5}
	r := RunChainFaults(ChainFaultsConfig{ChainConfig: cfg})
	// The fault-free closed-loop count at this point, window-start
	// completions included.
	const wantOps = 9368
	if got := r.Rel.Ops(); got != wantOps {
		t.Fatalf("fault-free RunChainFaults counted %d ops, want %d", got, wantOps)
	}
	if r.Rel.OpsFailed != 0 || r.AvgLatency == 0 {
		t.Fatalf("fault-free run: failed=%d latency %v", r.Rel.OpsFailed, r.AvgLatency)
	}
	if got := r.Goodput * cfg.Window.Seconds(); int64(got+0.5) != wantOps {
		t.Fatalf("goodput %.1f ops/s does not cover %d ops", r.Goodput, wantOps)
	}
}
