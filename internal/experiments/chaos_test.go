package experiments

import (
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/sim"
)

// TestChainFaultsNilPlanIsClean: the failure-aware chain runner with no
// plan must behave like a healthy system — every operation succeeds,
// nothing retries, nothing times out. This is the fault-free half of the
// chaos determinism contract (the golden digests pin the other half:
// the fault-free scenarios' bytes are untouched by this machinery).
func TestChainFaultsNilPlanIsClean(t *testing.T) {
	for _, mode := range []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal} {
		r := oltp.RunChainFaults(oltp.ChainFaultsConfig{
			ChainConfig: oltp.ChainConfig{
				Mode: mode, Depth: 3, Threads: 4,
				Work: sim.Micros(10), Warmup: sim.Millis(2), Window: sim.Millis(5), Seed: 5,
			},
			Retry: faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2, Backoff: sim.Micros(10)},
		})
		if r.Rel.OpsOK == 0 {
			t.Errorf("%v: no operations completed", mode)
		}
		if r.Rel.OpsFailed != 0 || r.Rel.Retries != 0 || r.Rel.Timeouts != 0 || r.Rel.Faults != 0 {
			t.Errorf("%v: fault-free run reported failures: %+v", mode, r.Rel)
		}
		if r.Availability != 1 || r.ErrorRate != 0 {
			t.Errorf("%v: availability %v, error rate %v; want 1, 0", mode, r.Availability, r.ErrorRate)
		}
		if r.Goodput <= 0 {
			t.Errorf("%v: goodput %v, want > 0", mode, r.Goodput)
		}
	}
}
