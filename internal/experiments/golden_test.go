package experiments

import (
	"fmt"
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/sim"
)

// goldenOLTP is an in-memory OLTP slice captured from the pre-pooling
// engine (container/heap + *event nodes, commit 7373e09) running
// sequentially. The specialized 4-ary value heap, its timer lanes, the
// callback clients and the WaitQueue ring buffer must not perturb a
// single byte of it: (at, seq) delivery order is the determinism
// contract of the whole reproduction. The golden files under
// testdata/golden pin every scenario, fig2 and fig5 included.
const goldenOLTP = "93000.000000 225000.000000 120000.000000 216000.000000"

// oltpSlice formats Linux and dIPC throughput at 4 and 16 threads of an
// in-memory Fig. 8 sweep with a 20 ms window.
func oltpSlice() string {
	r := RunFig8(true, []int{4, 16}, sim.Millis(20))
	return fmt.Sprintf("%.6f %.6f %.6f %.6f",
		r.Throughput(oltp.ModeLinux, 4), r.Throughput(oltp.ModeDIPC, 4),
		r.Throughput(oltp.ModeLinux, 16), r.Throughput(oltp.ModeDIPC, 16))
}

// TestEngineOutputsMatchPrePoolingEngine is the event-path rewrite's
// differential test: the OLTP slice, compared against the engine it was
// captured from.
func TestEngineOutputsMatchPrePoolingEngine(t *testing.T) {
	SetParallelism(1) // the slice was captured on the sequential path
	defer SetParallelism(0)
	if s := oltpSlice(); s != goldenOLTP {
		t.Errorf("OLTP slice diverged from pre-pooling engine:\n got %s\nwant %s", s, goldenOLTP)
	}
}

// TestEngineOutputsParallelMatchesSequential re-checks the harness
// guarantee against the same golden: worker-pool fan-out must not
// change a byte either.
func TestEngineOutputsParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the sequential golden test")
	}
	SetParallelism(4)
	defer SetParallelism(0)
	if s := oltpSlice(); s != goldenOLTP {
		t.Errorf("parallel OLTP slice diverged:\n got %s\nwant %s", s, goldenOLTP)
	}
}
