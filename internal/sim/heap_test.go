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

// checkQueue reports the first broken invariant of q, or "": the stale
// count is exact over the heap, rest counts the ring entries, and each
// lane is armed exactly when one heap entry carries its tag, that entry
// is a callback, a ring waits only behind an armed lane, and it is in
// (at, seq) order after that heap entry. That a ring holds only
// callbacks is a fact of its element type.
func checkQueue(q *eventQueue) string {
	stale, rest := 0, 0
	var heads [numLanes]*event
	for i := range q.ev {
		ev := &q.ev[i]
		if staleEvent(ev) {
			stale++
		}
		if l := ev.data.timer; l != 0 {
			if heads[l-1] != nil {
				return "two heap entries carry one lane's tag"
			}
			heads[l-1] = ev
		}
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.armed != (heads[i] != nil) {
			return "a lane's armed flag disagrees with the heap"
		}
		prev := heads[i]
		if prev != nil && prev.proc != nil {
			return "a lane's heap entry is a proc wakeup"
		}
		for k := 0; k < l.ring.Len(); k++ {
			ev := l.ring.At(k).event(uint8(i + 1))
			if prev == nil || !before(prev, &ev) {
				return "a lane ring is out of (at, seq) order or waits behind no heap entry"
			}
			prev = &ev
		}
		rest += l.ring.Len()
	}
	if stale != q.stale {
		return "the stale count is off"
	}
	if rest != q.rest {
		return "rest does not count the ring entries"
	}
	return ""
}

// TestHeapMatchesReference drives the 4-ary heap with its timer lanes
// and the insertion-sorted reference through identical random
// push/pushTimer/pop/replaceTop schedules and demands the exact same pop
// sequence, including ties at equal timestamps. Sequence numbers come
// from two rising counters, the engine's and the link band above it, so
// at a tied instant seq decides either way: an event inserted later can
// still sort first. Timers take engine seqs, at = now+delay for a few
// fixed delays, on a clock that, as in the engine, moves forward to
// each popped event's at; the second delay set has more delays than lanes, so some
// timers fall back to the heap and emptied lanes are re-keyed. A
// replaceTop is a pop followed by a push in the reference. After every
// step the lane invariants hold (checkQueue), and the cached bound must
// not exceed the earliest event's at (every event here is live): it is
// exact, min(ceil, that at), with the ceiling moved now and then as
// RunUntil moves it.
func TestHeapMatchesReference(t *testing.T) {
	for _, delays := range [][]Time{{3, 7, 12}, {0, 2, 5, 9, 14, 20}} {
		schedule := func(seed uint64) bool {
			return heapMatchesReference(t, seed, delays)
		}
		if err := quick.Check(schedule, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("delays %v: %v", delays, err)
		}
	}
}

func heapMatchesReference(t *testing.T, seed uint64, delays []Time) bool {
	rng := NewRand(seed)
	h := eventQueue{bound: maxTime, ceil: maxTime}
	var ref refQueue
	var now Time
	check := func() bool {
		want := h.ceil
		if len(ref) > 0 && ref[0].at < want {
			want = ref[0].at
		}
		if h.bound != want {
			t.Logf("seed %d: bound %v, want %v", seed, h.bound, want)
			return false
		}
		if msg := checkQueue(&h); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	var seq, linkSeq uint64 = 0, linkBand
	next := func() event {
		// Small time range to force plenty of (at, seq) ties.
		ev := event{at: now + Time(rng.Intn(16))}
		if rng.Intn(4) == 0 {
			linkSeq++
			ev.seq = linkSeq
		} else {
			seq++
			ev.seq = seq
		}
		return ev
	}
	popped := func(got, want event) bool {
		// replaceTop may insert before the root it removes, which the
		// engine never does; the clock still only moves forward.
		now = max(now, got.at)
		return got.at == want.at && got.seq == want.seq && got.data.timer == 0
	}
	for op := 0; op < 400; op++ {
		switch k := rng.Intn(9); {
		case k == 8:
			if rng.Intn(2) == 0 {
				h.setCeil(maxTime)
			} else {
				h.setCeil(now + Time(rng.Intn(20)))
			}
		case k >= 6:
			d := delays[rng.Intn(len(delays))]
			seq++
			h.pushTimer(d, laneTimer{at: now + d, seq: seq})
			ref.push(event{at: now + d, seq: seq})
		case h.len() == 0 || k < 2:
			ev := next()
			h.push(ev)
			ref.push(ev)
		case k < 4:
			ev := next()
			got, want := h.replaceTop(ev), ref.pop()
			ref.push(ev)
			if !popped(got, want) {
				return false
			}
		default:
			if !popped(h.pop(), ref.pop()) {
				return false
			}
		}
		if !check() {
			return false
		}
	}
	for h.len() > 0 {
		if !popped(h.pop(), ref.pop()) || !check() {
			return false
		}
	}
	return len(ref) == 0 && h.size() == 0
}

// TestTimerLaneFallback: once every lane is busy with another delay, a
// timer goes to the heap untagged; a lane that empties is re-keyed to
// the next new delay.
func TestTimerLaneFallback(t *testing.T) {
	q := eventQueue{bound: maxTime, ceil: maxTime}
	var seq uint64
	arm := func(d Time) {
		seq++
		q.pushTimer(d, laneTimer{at: d, seq: seq})
	}
	for d := Time(1); d <= numLanes; d++ {
		arm(d)
		arm(d)
	}
	if q.len() != numLanes || q.rest != numLanes {
		t.Fatalf("heap %d, rings %d after two timers on each of %d delays; want %d and %d",
			q.len(), q.rest, numLanes, numLanes, numLanes)
	}
	arm(100)
	if q.len() != numLanes+1 || q.rest != numLanes {
		t.Fatalf("a delay with every lane busy: heap %d, rings %d; want %d and %d",
			q.len(), q.rest, numLanes+1, numLanes)
	}
	for i := range q.ev {
		if q.ev[i].at == 100 && q.ev[i].data.timer != 0 {
			t.Fatal("the fallback timer carries a lane tag")
		}
	}
	// Lane 1 (delay 1) drains with two pops, and delay 200 claims it.
	q.pop()
	q.pop()
	if q.lanes[0].armed {
		t.Fatal("a drained lane is still armed")
	}
	arm(200)
	if l := &q.lanes[0]; !l.armed || l.delay != 200 {
		t.Fatalf("lane 1: armed %v, delay %v; want re-keyed to 200", l.armed, l.delay)
	}
	if msg := checkQueue(&q); msg != "" {
		t.Fatal(msg)
	}
}

// TestHeapDropsStaleWakeups interleaves stale proc wakeups with live
// traffic, half of it callbacks on two timer lanes, and checks the live
// pop sequence against the reference (which never holds the stale
// entries): stale wakeups wait in the heap, never in a lane, and the
// loop drops them when they reach the root. After every step the lane
// invariants hold (checkQueue), and the cached bound tracks the root
// and never exceeds the earliest live event's at.
func TestHeapDropsStaleWakeups(t *testing.T) {
	schedule := func(seed uint64) bool {
		rng := NewRand(seed)
		e := NewEngine(seed)
		staleProc := &Proc{eng: e, name: "stale", gen: 1}
		var ref refQueue
		delays := []Time{5, 11}
		for op := 0; op < 600; op++ {
			switch {
			case e.events.len() > 0 && rng.Intn(3) == 0:
				ev := e.events.pop()
				e.now = max(e.now, ev.at)
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
				if rng.Intn(2) == 0 {
					d := delays[rng.Intn(len(delays))]
					at = e.now + d
					e.AtU64(d, func(uint64) {}, 0)
				} else {
					e.push(at, nil, 0, payload{boxed: func() {}})
				}
				ref.push(event{at: at, seq: e.seq})
			default:
				// Permanently stale wakeup, counted stale at push:
				// generation 0 while the proc is on generation 1.
				e.push(e.now+Time(rng.Intn(16)), staleProc, 0, payload{})
			}
			if msg := checkQueue(&e.events); msg != "" {
				t.Logf("seed %d: %s", seed, msg)
				return false
			}
			// The bound is the root's at, stale or not, so a stale
			// root may hold it below the earliest live event, never
			// above it.
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

// TestHeapPopReleasesSlots checks the pooled slice and the lane rings do
// not pin payloads or callbacks: pop, a replaceTop that refills the heap
// from a lane, and the refill itself must zero the slots they vacate.
func TestHeapPopReleasesSlots(t *testing.T) {
	var q eventQueue
	data := boxPayload("payload")
	q.push(event{at: 1, seq: 1, data: data})
	q.push(event{at: 2, seq: 2, data: data})
	q.pop()
	q.pop()
	fn := func(uint64) {}
	q.pushTimer(5, laneTimer{at: 5, seq: 3, fn: fn, v: 1})
	q.pushTimer(5, laneTimer{at: 5, seq: 4, fn: fn, v: 1})
	q.replaceTop(event{at: 6, seq: 5})
	q.pop()
	q.pop()
	if q.size() != 0 {
		t.Fatalf("%d entries left; want none", q.size())
	}
	for i, slot := range q.ev[:cap(q.ev)] {
		if slot.data.boxed != nil || slot.data.kind != payNil || slot.proc != nil {
			t.Fatalf("pooled heap slot %d still holds references: %+v", i, slot)
		}
	}
	for i := range q.lanes {
		for k, lt := range q.lanes[i].ring.buf {
			if lt.fn != nil || lt.at != 0 || lt.seq != 0 || lt.v != 0 {
				t.Fatalf("lane %d ring slot %d still holds a timer: %+v", i, k, lt)
			}
		}
	}
}
