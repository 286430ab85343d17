package stats

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/sim"
)

// refHistogram is the histogram as it was with 64-bit counters, kept
// frozen here, bucket mapping included, as the reference the 32-bit
// Histogram must match observation for observation.
type refHistogram struct {
	counts [histBuckets]int64
	total  int64
	max    sim.Time
}

func refIndex(v uint64) int {
	if v < 64 {
		return int(v)
	}
	shift := bits.Len64(v) - 6
	return 64 + (shift-1)*32 + int(v>>uint(shift)) - 32
}

func refUpper(i int) sim.Time {
	if i < 64 {
		return sim.Time(i)
	}
	band := (i - 64) / 32
	off := (i - 64) % 32
	shift := uint(band + 1)
	lo := (uint64(off) + 32) << shift
	return sim.Time(lo + (1 << shift) - 1)
}

func (h *refHistogram) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[refIndex(uint64(v))]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

func (h *refHistogram) Merge(other *refHistogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	if other.max > h.max {
		h.max = other.max
	}
}

func (h *refHistogram) Quantile(q float64) sim.Time {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.total))
	if float64(rank) < q*float64(h.total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			if u := refUpper(i); u < h.max {
				return u
			}
			return h.max
		}
	}
	return h.max
}

// sameAsRef reports how h differs from the reference, or "".
func sameAsRef(h *Histogram, ref *refHistogram) string {
	if h.Count() != ref.total || h.Max() != ref.max {
		return "Count or Max differs"
	}
	for i := range h.counts {
		if int64(h.counts[i]) != ref.counts[i] {
			return "a bucket count differs"
		}
	}
	if h.P50() != ref.Quantile(0.50) || h.P99() != ref.Quantile(0.99) || h.P999() != ref.Quantile(0.999) {
		return "P50, P99 or P999 differs"
	}
	for k := -2; k <= 1002; k++ {
		q := float64(k) / 1000
		if h.Quantile(q) != ref.Quantile(q) {
			return "a Quantile in the sweep differs"
		}
	}
	return ""
}

// TestHistogramMatchesInt64Reference feeds the 32-bit histogram and the
// frozen 64-bit one the same random streams — zeros, negatives and
// values of every bit length, each band of the bucket layout — and then
// the same streams split over shards and merged. Count, Max, every
// bucket and every quantile must agree.
func TestHistogramMatchesInt64Reference(t *testing.T) {
	rng := sim.NewRand(35)
	draw := func() sim.Time {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return -sim.Time(rng.Uint64() >> (1 + uint(rng.Intn(63))))
		default:
			// Bit lengths 0..63: every exact bucket and every band.
			return sim.Time(rng.Uint64() >> (1 + uint(rng.Intn(63))))
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20000)
		shards := 1 + rng.Intn(6)
		var whole Histogram
		var wholeRef refHistogram
		parts := make([]Histogram, shards)
		partRefs := make([]refHistogram, shards)
		for i := 0; i < n; i++ {
			v := draw()
			if rng.Intn(4) == 0 {
				v = sim.Time(rng.Intn(64)) // pile ties into the exact buckets
			}
			whole.Record(v)
			wholeRef.Record(v)
			s := rng.Intn(shards)
			parts[s].Record(v)
			partRefs[s].Record(v)
		}
		if msg := sameAsRef(&whole, &wholeRef); msg != "" {
			t.Fatalf("trial %d (n=%d), one stream: %s", trial, n, msg)
		}
		var merged Histogram
		var mergedRef refHistogram
		for i := range parts {
			merged.Merge(&parts[i])
			mergedRef.Merge(&partRefs[i])
		}
		if msg := sameAsRef(&merged, &mergedRef); msg != "" {
			t.Fatalf("trial %d (n=%d, shards=%d), merged: %s", trial, n, shards, msg)
		}
		if msg := sameAsRef(&merged, &wholeRef); msg != "" {
			t.Fatalf("trial %d (n=%d, shards=%d), merged against one stream: %s", trial, n, shards, msg)
		}
	}
	var empty Histogram
	if msg := sameAsRef(&empty, &refHistogram{}); msg != "" {
		t.Fatalf("empty: %s", msg)
	}
}

// TestHistogramBucketBound: a bucket holds 2^32-1 observations. One
// more through Record or Merge panics instead of wrapping, a Merge that
// panics leaves its receiver as it was, and a bucket one short of the
// bound still takes one.
func TestHistogramBucketBound(t *testing.T) {
	const v = sim.Time(1000)
	i := histIndex(uint64(v))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a full bucket did not panic", name)
			}
		}()
		f()
	}

	var h Histogram
	h.counts[i] = math.MaxUint32 - 1
	h.Record(v)
	if h.counts[i] != math.MaxUint32 {
		t.Fatalf("bucket reads %d after filling it, want %d", h.counts[i], uint32(math.MaxUint32))
	}
	mustPanic("Record", func() { h.Record(v) })

	var full, two Histogram
	full.counts[i], full.total, full.max = math.MaxUint32, math.MaxUint32, v
	two.Record(1)
	two.Record(v)
	before := full
	mustPanic("Merge", func() { full.Merge(&two) })
	if full != before {
		t.Error("a Merge that panicked changed its receiver")
	}
	mustPanic("Merge into a one-count bucket", func() { two.Merge(&full) })
}
