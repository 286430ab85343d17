package stats

import "repro/internal/sim"

// Accumulator collects one partition's share of a measurement: a time
// breakdown plus operation count and summed latency. Each machine (or
// part) of a multi-machine simulation owns exactly one accumulator;
// after the run the partitions are combined with Merge in a fixed order.
// Because every field combines by addition — commutative and associative
// over exact integers — merged totals are independent of the merge order,
// but callers still merge in partition index order (MergeAll) so even a
// future non-commutative field could not introduce order-dependent
// results.
type Accumulator struct {
	Breakdown Breakdown
	Ops       int64
	Latency   sim.Time // summed per-op latency; average is Latency/Ops
	// Rel carries the partition's failure-path counters (zero for
	// failure-free runs; see Reliability).
	Rel Reliability
	// Hist is the per-partition latency distribution; AddOp records into
	// it, Merge folds it elementwise, so per-partition tails combine into
	// exact global percentiles (see Histogram).
	Hist Histogram
}

// AddOp records one completed operation and its latency.
func (a *Accumulator) AddOp(latency sim.Time) {
	a.Ops++
	a.Latency += latency
	a.Hist.Record(latency)
}

// Merge folds other into a.
func (a *Accumulator) Merge(other *Accumulator) {
	a.Breakdown.AddAll(other.Breakdown)
	a.Ops += other.Ops
	a.Latency += other.Latency
	a.Rel.Merge(other.Rel)
	a.Hist.Merge(&other.Hist)
}

// MergeAll combines the accumulators in slice order (partition index
// order, by convention) and returns the total.
func MergeAll(accs []*Accumulator) Accumulator {
	var total Accumulator
	for _, a := range accs {
		total.Merge(a)
	}
	return total
}

// AvgLatency returns the mean per-op latency, 0 if no ops completed.
func (a *Accumulator) AvgLatency() sim.Time {
	if a.Ops == 0 {
		return 0
	}
	return a.Latency / sim.Time(a.Ops)
}
