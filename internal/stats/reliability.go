package stats

import "repro/internal/sim"

// Reliability aggregates one partition's failure-path counters — the
// degradation-under-failure companion of the time Breakdown. Like every
// other accumulator in this package, each machine/part owns exactly
// one; merged totals are sums of exact integers, so they do not depend
// on the merge order.
type Reliability struct {
	OpsOK     int64 // operations that completed successfully
	OpsFailed int64 // operations abandoned after exhausting retries
	Attempts  int64 // call attempts, including retries
	Retries   int64 // attempts beyond each operation's first
	Timeouts  int64 // attempts that ended in a deadline expiry
	Faults    int64 // attempts that ended in an immediate error
	Drops     int64 // messages black-holed (down links, dead tiers)
	Rejected  int64 // operations refused by admission control (subset of OpsFailed)

	// Replication & failover counters (zero when the workload runs
	// unreplicated, so the struct stays drop-in for every older runner).
	Failovers     int64 // attempts routed away from the policy's first choice
	Hedges        int64 // hedged duplicate requests issued
	HedgeWins     int64 // operations won by the hedged duplicate
	HedgeLosses   int64 // hedges issued whose primary still won
	Cancelled     int64 // stale completions discarded after timeout/first-response
	Suspicions    int64 // health-detector suspect transitions
	FalseSuspects int64 // suspect transitions while the replica was in fact alive
	Detections    int64 // suspect transitions that matched a real crash

	// DetectLatency sums kill-to-suspicion time over Detections; divide
	// by Detections for the mean (sums of exact integers merge
	// deterministically where a float mean would not).
	DetectLatency sim.Time
}

// Merge folds other into r.
func (r *Reliability) Merge(other Reliability) {
	r.OpsOK += other.OpsOK
	r.OpsFailed += other.OpsFailed
	r.Attempts += other.Attempts
	r.Retries += other.Retries
	r.Timeouts += other.Timeouts
	r.Faults += other.Faults
	r.Drops += other.Drops
	r.Rejected += other.Rejected
	r.Failovers += other.Failovers
	r.Hedges += other.Hedges
	r.HedgeWins += other.HedgeWins
	r.HedgeLosses += other.HedgeLosses
	r.Cancelled += other.Cancelled
	r.Suspicions += other.Suspicions
	r.FalseSuspects += other.FalseSuspects
	r.Detections += other.Detections
	r.DetectLatency += other.DetectLatency
}

// Sub returns r minus base, the window delta of two snapshots.
func (r Reliability) Sub(base Reliability) Reliability {
	return Reliability{
		OpsOK:     r.OpsOK - base.OpsOK,
		OpsFailed: r.OpsFailed - base.OpsFailed,
		Attempts:  r.Attempts - base.Attempts,
		Retries:   r.Retries - base.Retries,
		Timeouts:  r.Timeouts - base.Timeouts,
		Faults:    r.Faults - base.Faults,
		Drops:     r.Drops - base.Drops,
		Rejected:  r.Rejected - base.Rejected,

		Failovers:     r.Failovers - base.Failovers,
		Hedges:        r.Hedges - base.Hedges,
		HedgeWins:     r.HedgeWins - base.HedgeWins,
		HedgeLosses:   r.HedgeLosses - base.HedgeLosses,
		Cancelled:     r.Cancelled - base.Cancelled,
		Suspicions:    r.Suspicions - base.Suspicions,
		FalseSuspects: r.FalseSuspects - base.FalseSuspects,
		Detections:    r.Detections - base.Detections,
		DetectLatency: r.DetectLatency - base.DetectLatency,
	}
}

// Ops is the total operations offered (completed plus failed).
func (r Reliability) Ops() int64 { return r.OpsOK + r.OpsFailed }

// Goodput is successful operations per second of the window.
func (r Reliability) Goodput(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.OpsOK) / window.Seconds()
}

// ErrorRate is the fraction of operations that failed (0 with no ops).
func (r Reliability) ErrorRate() float64 {
	if tot := r.Ops(); tot > 0 {
		return float64(r.OpsFailed) / float64(tot)
	}
	return 0
}

// Availability is the fraction of operations that succeeded; a quiet
// window reads as fully available.
func (r Reliability) Availability() float64 {
	if tot := r.Ops(); tot > 0 {
		return float64(r.OpsOK) / float64(tot)
	}
	return 1
}

// RejectRate is the fraction of operations refused by admission control
// (0 with no ops).
func (r Reliability) RejectRate() float64 {
	if tot := r.Ops(); tot > 0 {
		return float64(r.Rejected) / float64(tot)
	}
	return 0
}

// HedgeWinRate is the fraction of hedged duplicates that won their
// operation (0 with no hedges issued).
func (r Reliability) HedgeWinRate() float64 {
	if r.Hedges > 0 {
		return float64(r.HedgeWins) / float64(r.Hedges)
	}
	return 0
}

// FalsePositiveRate is the fraction of health-detector suspicions that
// accused a live replica (0 with no suspicions).
func (r Reliability) FalsePositiveRate() float64 {
	if r.Suspicions > 0 {
		return float64(r.FalseSuspects) / float64(r.Suspicions)
	}
	return 0
}

// MeanDetectLatency is the mean kill-to-suspicion time over real
// detections (0 with none).
func (r Reliability) MeanDetectLatency() sim.Time {
	if r.Detections > 0 {
		return r.DetectLatency / sim.Time(r.Detections)
	}
	return 0
}

// RetryAmplification is attempts per operation — 1.0 when nothing ever
// retries, climbing as timeouts stack retries onto the offered load (0
// with no ops).
func (r Reliability) RetryAmplification() float64 {
	if tot := r.Ops(); tot > 0 {
		return float64(r.Attempts) / float64(tot)
	}
	return 0
}
