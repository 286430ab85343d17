package oltp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestRunnersReleaseGoroutines: every runner closes its engine on
// return, so many runs in one process leave no simulated thread behind.
// Twenty closed-loop windows over the three modes, one chain run and
// two replicated racks (one sequential, one on a two-shard cluster)
// must bring runtime.NumGoroutine back to where it started.
func TestRunnersReleaseGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	modes := []Mode{ModeLinux, ModeDIPC, ModeIdeal}
	for i := 0; i < 20; i++ {
		r := Run(Config{Mode: modes[i%len(modes)], Threads: 4, InMemory: true,
			Warmup: sim.Millis(1), Window: sim.Millis(1), Seed: uint64(i)})
		if r.Ops == 0 {
			t.Fatalf("run %d completed no requests", i)
		}
	}
	RunChainFaults(ChainFaultsConfig{ChainConfig: ChainConfig{Mode: ModeDIPC, Depth: 2, Threads: 2,
		Warmup: sim.Millis(1), Window: sim.Millis(1), Seed: 1}})
	for _, shards := range []int{1, 2} {
		cfg := testReplicatedConfig(ModeDIPC)
		cfg.Shards = shards
		RunReplicated(cfg)
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > before; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before { // not !=: a goroutine left by an earlier test may exit meanwhile
		t.Fatalf("goroutines: %d before the runs, %d after", before, n)
	}
}
