package sim

// eventQueue is a hand-specialized 4-ary min-heap of event values ordered
// by (at, seq). It replaces container/heap over []*event: events are
// stored by value in one contiguous slice, so pushing reuses pooled slice
// capacity instead of allocating a node per event, and comparisons never
// box through heap.Interface/any. A 4-ary layout halves the tree depth of
// a binary heap and keeps all children of a node in adjacent slots, which
// the sift loops exploit for cache locality. Besides push and pop it
// offers replaceTop, the "hold" of the discrete-event literature: a slow
// Sleep removes the head it yields to and inserts its own wakeup in one
// sift down, where push then pop would walk the tree twice.
//
// Timers armed with a fixed delay skip most of the heap: pushTimer files
// them on a timer lane keyed by their delay, the constant-interval case
// of Varghese and Lauck's timing wheels. Every entry of a lane is due
// its delay after the instant it was armed, on a clock that never goes
// back, and has a seq that only grows, so a lane arrives already sorted
// and a FIFO holds it with no sift.
// Each nonempty lane keeps exactly its earliest entry in the heap and
// the rest in a ring behind it; pop and replaceTop, removing a lane's
// entry, refill the heap from that lane's ring. The heap's root is
// therefore still the earliest queued event, and the loop, Sleep,
// Advance and bound read it as before. The pop sequence cannot change
// either: (at, seq) is a total order, and merging sorted runs through a
// heap pops the same sequence as one heap over all of them. A
// session deadline that its request beats — the common case — thus
// waits in a ring instead of deepening the heap every other event
// sifts through. Lanes are claimed by the first delays that arrive, up
// to numLanes, and an empty lane is re-keyed to a new delay; once all
// are busy with other delays, a timer goes to the heap. A lane holds
// only callbacks, which are never stale.
//
// The queue also counts its stale entries: proc wakeups that can never
// be delivered because their proc finished or moved to a newer
// generation (a second Wake of one Waiter, say). They sit in the heap
// until they reach its root, where the loop drops them.
//
// Last, the queue keeps bound current: a lower bound on the at of its
// earliest live entry, capped by ceil. Every operation that can change
// the root (push, pop, replaceTop) updates it, so Proc.Advance tests
// "does anything precede this wakeup?" with one compare. A stale root
// only lowers the bound, which is conservative: the caller falls back
// to Sleep, whose slow path drops it.
type eventQueue struct {
	ev    []event
	stale int  // heap entries for which staleEvent() holds
	bound Time // min(ceil, ev[0].at); ceil when the queue is empty
	ceil  Time // one past the run limit; 0 once the engine is closed
	rest  int  // entries waiting in lane rings
	lanes [numLanes]timerLane
}

// timerLane holds the timers of one fixed delay in (at, seq) order. Its
// earliest entry sits in the heap, tagged with the lane's number in
// payload.timer; the rest wait in the ring.
type timerLane struct {
	delay Time
	armed bool // the lane's earliest entry sits in the heap
	ring  Queue[event]
}

// numLanes is the number of timer lanes. A run arms a few fixed delays
// (session deadlines, hedge timers); more lanes would only lengthen the
// scan in pushTimer.
const numLanes = 4

// staleEvent reports whether ev is permanently undeliverable: its proc
// finished, moved past the event's generation, or already consumed the
// generation (delivered watermark) — by a delivered wakeup, or in place
// by a fast-path Sleep. All three are monotonic, so once stale an event
// stays stale. An event queued by a running proc for its own upcoming
// park (a slow Sleep's wakeup) has gen == proc.gen > delivered and is
// live although the proc is not parked yet.
func staleEvent(ev *event) bool {
	p := ev.proc
	return p != nil && (p.finished || ev.gen != p.gen || ev.gen <= p.delivered)
}

// len returns the number of entries in the heap. The heap is empty only
// when the lanes are too, since each nonempty lane has an entry there.
func (q *eventQueue) len() int { return len(q.ev) }

// size returns the number of queued entries: the heap's and the lanes'.
func (q *eventQueue) size() int { return len(q.ev) + q.rest }

// live returns the number of entries that are not known-stale.
func (q *eventQueue) live() int { return q.size() - q.stale }

// before is the strict (at, seq) ordering; seq is unique, so this is a
// total order and the pop sequence is independent of heap shape.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev. Amortized O(1) allocations: once the slice has grown to
// the simulation's steady-state depth, append reuses the pooled capacity.
//
//dipcvet:noalloc
func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev) //dipcvet:alloc-ok pooled capacity: the heap slice reaches steady-state depth and stops growing
	q.siftUp(len(q.ev) - 1)
	if ev.at < q.bound {
		q.bound = ev.at
	}
}

// pushTimer inserts ev, a callback armed d after the current instant,
// on the lane keyed by d: into the heap if the lane is empty, else at
// the back of its ring. With no lane free for d, ev goes to the heap
// untagged.
//
//dipcvet:noalloc
func (q *eventQueue) pushTimer(d Time, ev event) {
	free := -1
	for i := range q.lanes {
		l := &q.lanes[i]
		if !l.armed {
			if free < 0 {
				free = i
			}
		} else if l.delay == d {
			//dipcvet:alloc-ok pooled capacity: the ring doubles until it holds the lane's steady-state backlog
			l.ring.PushBack(ev)
			q.rest++
			return
		}
	}
	if free >= 0 {
		q.lanes[free].delay = d
		q.lanes[free].armed = true
		ev.data.timer = uint8(free + 1)
	}
	q.push(ev)
}

// refill is called with the lane tag of an entry leaving the heap. It
// moves the lane's next entry, tagged, into *dst, a heap slot. With none
// left the lane is disarmed and refill reports false, leaving *dst as
// it was.
//
//dipcvet:noalloc
func (q *eventQueue) refill(lane uint8, dst *event) bool {
	l := &q.lanes[lane-1]
	if l.ring.Len() == 0 {
		l.armed = false
		return false
	}
	*dst = l.ring.PopFront()
	dst.data.timer = lane
	q.rest--
	return true
}

// setCeil caps bound at c: one past the run limit, so Advance never
// moves the clock across it, or 0 on a closed engine, so Advance always
// declines and Sleep reports the closed engine.
func (q *eventQueue) setCeil(c Time) {
	q.ceil = c
	q.rebound()
}

// rebound recomputes bound after the root changed.
func (q *eventQueue) rebound() {
	b := q.ceil
	if len(q.ev) > 0 && q.ev[0].at < b {
		b = q.ev[0].at
	}
	q.bound = b
}

// pop removes and returns the minimum event, and refills the heap from
// its lane if it had one. The vacated tail slot is zeroed so the pooled
// backing array does not pin procs, payloads or closures past their
// lifetime. The returned event carries no lane tag.
//
//dipcvet:noalloc
func (q *eventQueue) pop() event {
	top := q.ev[0]
	if lane := top.data.timer; lane != 0 {
		top.data.timer = 0
		if q.refill(lane, &q.ev[0]) {
			// The lane's next entry sorts after top, so it can take the
			// root's place and sift down, as in replaceTop.
			q.siftDown(0)
			q.rebound()
			return top
		}
	}
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{}
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	q.rebound()
	return top
}

// replaceTop removes and returns the minimum event and inserts ev in
// the same step: ev takes the root's place and sifts down once. This is
// the discrete-event "hold" — a slow Sleep yields to the head while
// queueing its own wakeup — at the cost of one sift instead of push's
// sift up plus pop's sift down. If the head came from a lane, the lane's
// next entry is pushed as a leaf: it is due after the head, usually long
// after, so its sift up stops at once. Callers must have checked
// len() > 0. The returned event carries no lane tag.
//
//dipcvet:noalloc
func (q *eventQueue) replaceTop(ev event) event {
	top := q.ev[0]
	q.ev[0] = ev
	q.siftDown(0)
	if lane := top.data.timer; lane != 0 {
		top.data.timer = 0
		var next event
		if q.refill(lane, &next) {
			q.ev = append(q.ev, next) //dipcvet:alloc-ok pooled capacity, as in push
			q.siftUp(len(q.ev) - 1)
		}
	}
	q.rebound()
	return top
}

// head returns the minimum event without removing it. Callers must have
// checked len() > 0.
func (q *eventQueue) head() *event { return &q.ev[0] }

//dipcvet:noalloc
func (q *eventQueue) siftUp(i int) {
	ev := q.ev[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&ev, &q.ev[parent]) {
			break
		}
		q.ev[i] = q.ev[parent]
		i = parent
	}
	q.ev[i] = ev
}

//dipcvet:noalloc
func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	ev := q.ev[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		best := first
		for c := first + 1; c < last; c++ {
			if before(&q.ev[c], &q.ev[best]) {
				best = c
			}
		}
		if !before(&q.ev[best], &ev) {
			break
		}
		q.ev[i] = q.ev[best]
		i = best
	}
	q.ev[i] = ev
}
