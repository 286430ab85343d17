package stats

import (
	"testing"

	"repro/internal/sim"
)

// The derived-rate methods must read as defined values on empty or
// degenerate inputs: a scenario that records no operations (or asks for
// a zero-length window) gets quiet zeros and full availability, never
// NaN or Inf.
func TestReliabilityZeroOpsDefined(t *testing.T) {
	var r Reliability
	if got := r.Goodput(sim.Millis(10)); got != 0 {
		t.Errorf("Goodput with no ops = %g, want 0", got)
	}
	if got := r.ErrorRate(); got != 0 {
		t.Errorf("ErrorRate with no ops = %g, want 0", got)
	}
	if got := r.Availability(); got != 1 {
		t.Errorf("Availability with no ops = %g, want 1 (quiet window is fully available)", got)
	}
	if got := r.RetryAmplification(); got != 0 {
		t.Errorf("RetryAmplification with no ops = %g, want 0", got)
	}
	if got := r.RejectRate(); got != 0 {
		t.Errorf("RejectRate with no ops = %g, want 0", got)
	}
}

func TestReliabilityZeroWindowDefined(t *testing.T) {
	r := Reliability{OpsOK: 100}
	if got := r.Goodput(0); got != 0 {
		t.Errorf("Goodput over zero window = %g, want 0", got)
	}
	if got := r.Goodput(-sim.Millis(1)); got != 0 {
		t.Errorf("Goodput over negative window = %g, want 0", got)
	}
}

// Sanity on a populated counter set, including the admission-control
// rejection counter.
func TestReliabilityRates(t *testing.T) {
	r := Reliability{OpsOK: 75, OpsFailed: 25, Attempts: 150, Rejected: 10}
	if got := r.Ops(); got != 100 {
		t.Fatalf("Ops = %d, want 100", got)
	}
	if got := r.ErrorRate(); got != 0.25 {
		t.Errorf("ErrorRate = %g, want 0.25", got)
	}
	if got := r.Availability(); got != 0.75 {
		t.Errorf("Availability = %g, want 0.75", got)
	}
	if got := r.RetryAmplification(); got != 1.5 {
		t.Errorf("RetryAmplification = %g, want 1.5", got)
	}
	if got := r.RejectRate(); got != 0.10 {
		t.Errorf("RejectRate = %g, want 0.10", got)
	}
	if got := r.Goodput(sim.Second); got != 75 {
		t.Errorf("Goodput = %g, want 75", got)
	}
}

// Merge must carry every counter, Rejected included.
func TestReliabilityMergeRejected(t *testing.T) {
	a := Reliability{OpsOK: 1, Rejected: 2, Drops: 3}
	b := Reliability{OpsFailed: 4, Rejected: 5}
	a.Merge(b)
	if a.Rejected != 7 || a.OpsFailed != 4 || a.Drops != 3 {
		t.Fatalf("Merge lost counters: %+v", a)
	}
}
