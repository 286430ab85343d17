package sim

import (
	"testing"
	"testing/quick"
)

// refQueue is the differential-testing reference for eventQueue: a
// deliberately naive insertion-sorted slice with the same (at, seq)
// ordering contract. Any divergence between the two is a bug in the
// specialized heap, not in the reference.
type refQueue []event

func (r *refQueue) push(ev event) {
	q := *r
	i := len(q)
	for i > 0 && before(&ev, &q[i-1]) {
		i--
	}
	q = append(q, event{})
	copy(q[i+1:], q[i:])
	q[i] = ev
	*r = q
}

func (r *refQueue) pop() event {
	q := *r
	ev := q[0]
	*r = q[1:]
	return ev
}

// TestHeapMatchesReference drives the 4-ary heap and the insertion-sorted
// reference through identical random push/pop/replaceTop schedules and
// demands the exact same pop sequence, including ties at equal
// timestamps. Sequence numbers come from two rising counters, the
// engine's and the link band above it, so at a tied instant seq decides
// either way: an event inserted later can still sort first. A
// replaceTop is a pop followed by a push in the reference. After every
// step the cached bound must not exceed the earliest event's at (every
// event here is live), and it is exact: min(ceil, that at), with the
// ceiling moved now and then as RunUntil moves it.
func TestHeapMatchesReference(t *testing.T) {
	schedule := func(seed uint64) bool {
		rng := NewRand(seed)
		h := eventQueue{bound: maxTime, ceil: maxTime}
		var ref refQueue
		boundOK := func() bool {
			want := h.ceil
			if len(ref) > 0 && ref[0].at < want {
				want = ref[0].at
			}
			return h.bound == want
		}
		var seq, linkSeq uint64 = 0, linkBand
		next := func() event {
			// Small time range to force plenty of (at, seq) ties.
			ev := event{at: Time(rng.Intn(16))}
			if rng.Intn(4) == 0 {
				linkSeq++
				ev.seq = linkSeq
			} else {
				seq++
				ev.seq = seq
			}
			return ev
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(7); {
			case k == 6:
				if rng.Intn(2) == 0 {
					h.setCeil(maxTime)
				} else {
					h.setCeil(Time(rng.Intn(20)))
				}
			case h.len() == 0 || k < 3:
				ev := next()
				h.push(ev)
				ref.push(ev)
			case k < 5:
				ev := next()
				got, want := h.replaceTop(ev), ref.pop()
				ref.push(ev)
				if got.at != want.at || got.seq != want.seq {
					return false
				}
			default:
				got, want := h.pop(), ref.pop()
				if got.at != want.at || got.seq != want.seq {
					return false
				}
			}
			if !boundOK() {
				return false
			}
		}
		for h.len() > 0 {
			got, want := h.pop(), ref.pop()
			if got.at != want.at || got.seq != want.seq || !boundOK() {
				return false
			}
		}
		return len(ref) == 0
	}
	if err := quick.Check(schedule, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapCompactionPreservesOrder interleaves stale-event creation with
// live traffic so maybeCompact fires mid-schedule, and checks the live pop
// sequence against the reference (which never holds the stale entries).
// It also asserts the pruning invariant: after every push, stale entries
// never make up more than half of a compactMin-sized heap; and that the
// cached bound tracks the root and never exceeds the earliest live
// event's at.
func TestHeapCompactionPreservesOrder(t *testing.T) {
	schedule := func(seed uint64) bool {
		rng := NewRand(seed)
		e := NewEngine(seed)
		staleProc := &Proc{eng: e, name: "stale", gen: 1}
		var ref refQueue
		for op := 0; op < 600; op++ {
			pushed := true
			switch {
			case e.events.len() > 0 && rng.Intn(3) == 0:
				pushed = false
				ev := e.events.pop()
				if ev.proc != nil { // stale wake dropped, as in schedule
					e.events.stale--
					continue
				}
				want := ref.pop()
				if ev.at != want.at || ev.seq != want.seq {
					return false
				}
			case rng.Intn(2) == 0:
				// Live callback event, mirrored into the reference.
				at := e.now + Time(rng.Intn(16))
				e.push(at, nil, 0, payload{boxed: func() {}})
				ref.push(event{at: at, seq: e.seq})
			default:
				// Permanently stale wakeup: generation 0 while the proc
				// is on generation 1. Counted stale at push, compacted
				// away once it dominates the heap.
				e.push(e.now+Time(rng.Intn(16)), staleProc, 0, payload{})
			}
			// Pruning invariant: a push (the only point maybeCompact
			// runs) must leave stale entries at no more than half of a
			// compactMin-sized heap. Pops may transiently exceed it.
			if pushed && e.events.len() >= compactMin && e.events.stale*2 > e.events.len() {
				return false
			}
			// The bound is the root's at, stale or not (compaction
			// moves the root too), so a stale root may hold it below
			// the earliest live event, never above it.
			root := e.events.ceil
			if e.events.len() > 0 && e.events.head().at < root {
				root = e.events.head().at
			}
			if e.events.bound != root || len(ref) > 0 && e.events.bound > ref[0].at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(schedule, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPopReleasesSlots checks the pooled slice does not pin payloads:
// pop must zero the vacated slot.
func TestHeapPopReleasesSlots(t *testing.T) {
	var q eventQueue
	data := boxPayload("payload")
	q.push(event{at: 1, seq: 1, data: data})
	q.push(event{at: 2, seq: 2, data: data})
	q.pop()
	q.pop()
	for i := range q.ev[:cap(q.ev)] {
		slot := q.ev[:cap(q.ev)][i]
		if slot.data.boxed != nil || slot.data.kind != payNil || slot.proc != nil {
			t.Fatalf("pooled slot %d still holds references: %+v", i, slot)
		}
	}
}
