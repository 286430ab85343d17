package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/sim"
)

// Golden digests captured from the pre-pooling engine (container/heap +
// *event nodes, commit 7373e09) running sequentially. The specialized
// 4-ary value heap, its timer lanes, the callback clients and the
// WaitQueue ring buffer must not perturb a single byte of any figure:
// (at, seq) delivery order is the determinism contract of the whole
// reproduction.
const (
	goldenFig2 = "b694d82b6631dd01c7caecdf50dc259492451ae76520b40866f93951dd664c42"
	goldenFig5 = "e719786c2748ae13519369bf3450951649f078a192283c6e7c92774f4077d6e4"
	goldenOLTP = "2aaf63922c1969be32d026b9236ad56ffc225e09654bafb5b7b9e319d99b9586"
)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestEngineOutputsMatchPrePoolingEngine is the PR's differential test:
// Fig2, Fig5 and an in-memory OLTP slice, byte-compared (via SHA-256)
// against the engine they were captured from before the event-path
// rewrite.
func TestEngineOutputsMatchPrePoolingEngine(t *testing.T) {
	SetParallelism(1) // digests were captured on the sequential path
	defer SetParallelism(0)

	if got := digest(RunFig2().Render()); got != goldenFig2 {
		t.Errorf("Fig2 output diverged from pre-pooling engine:\n got %s\nwant %s", got, goldenFig2)
	}
	if got := digest(RunFig5().Render()); got != goldenFig5 {
		t.Errorf("Fig5 output diverged from pre-pooling engine:\n got %s\nwant %s", got, goldenFig5)
	}

	r := RunFig8(true, []int{4, 16}, sim.Millis(20))
	s := fmt.Sprintf("%.6f %.6f %.6f %.6f",
		r.Throughput(oltp.ModeLinux, 4), r.Throughput(oltp.ModeDIPC, 4),
		r.Throughput(oltp.ModeLinux, 16), r.Throughput(oltp.ModeDIPC, 16))
	if got := digest(s); got != goldenOLTP {
		t.Errorf("OLTP slice diverged from pre-pooling engine:\n got %s (%s)\nwant %s", got, s, goldenOLTP)
	}
}

// TestEngineOutputsParallelMatchesSequential re-checks the PR-1 harness
// guarantee against the same goldens: worker-pool fan-out must not change
// a byte either.
func TestEngineOutputsParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the sequential golden test")
	}
	SetParallelism(4)
	defer SetParallelism(0)
	if got := digest(RunFig2().Render()); got != goldenFig2 {
		t.Errorf("parallel Fig2 diverged: got %s want %s", got, goldenFig2)
	}
	if got := digest(RunFig5().Render()); got != goldenFig5 {
		t.Errorf("parallel Fig5 diverged: got %s want %s", got, goldenFig5)
	}
}
