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
// The queue also tracks how many of its entries are stale — events that
// can never be delivered because their target proc finished or moved to a
// newer generation (e.g. the abandoned deadline timer left behind when a
// WaitTimeout is woken early). Stale entries are dropped when popped, and
// when they outnumber the live entries the whole heap is compacted in one
// O(n) pass so abandoned timers cannot keep the heap deep for the rest of
// the run.
//
// Last, the queue keeps bound current: a lower bound on the at of its
// earliest live entry, capped by ceil. Every operation that can change
// the root (push, pop, replaceTop, compact) updates it, so Proc.Advance
// tests "does anything precede this wakeup?" with one compare. A stale
// root only lowers the bound, which is conservative: the caller falls
// back to Sleep, whose slow path drops it.
type eventQueue struct {
	ev    []event
	stale int  // entries for which staleEvent() holds
	bound Time // min(ceil, ev[0].at); ceil when the queue is empty
	ceil  Time // one past the run limit; 0 once the engine is closed
}

// compactMin is the minimum heap size before compaction is considered;
// below it the stale entries are cheaper to drop lazily at pop.
const compactMin = 32

// staleEvent reports whether ev is permanently undeliverable: its proc
// finished, moved past the event's generation, or already consumed the
// generation (delivered watermark) — by a delivered wakeup, or in place
// by a fast-path Sleep. All three are monotonic, so once stale an event
// stays stale and compaction may discard it. Note an event queued by a
// running proc for its own upcoming park (a slow Sleep's wakeup) has
// gen == proc.gen > delivered and is correctly considered live even
// though the proc is not parked yet.
func staleEvent(ev *event) bool {
	p := ev.proc
	return p != nil && (p.finished || ev.gen != p.gen || ev.gen <= p.delivered)
}

func (q *eventQueue) len() int { return len(q.ev) }

// live returns the number of entries that are not known-stale.
func (q *eventQueue) live() int { return len(q.ev) - q.stale }

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

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the pooled backing array does not pin procs, payloads or
// closures past their lifetime.
//
//dipcvet:noalloc
func (q *eventQueue) pop() event {
	top := q.ev[0]
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
// sift up plus pop's sift down. Callers must have checked len() > 0.
//
//dipcvet:noalloc
func (q *eventQueue) replaceTop(ev event) event {
	top := q.ev[0]
	q.ev[0] = ev
	q.siftDown(0)
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

// maybeCompact rebuilds the heap without its stale entries once they
// outnumber the live ones. It is called on the paths that create stale
// entries (generation bumps, proc exit, pushes of already-stale wakes), so
// a WaitTimeout-heavy workload keeps the heap depth proportional to the
// number of live events rather than the number of abandoned timers.
// Compaction cannot change the pop sequence: (at, seq) is a total order,
// so any valid heap over the same live set pops identically.
func (q *eventQueue) compact() {
	kept := q.ev[:0]
	for i := range q.ev {
		if !staleEvent(&q.ev[i]) {
			kept = append(kept, q.ev[i])
		}
	}
	for i := len(kept); i < len(q.ev); i++ {
		q.ev[i] = event{}
	}
	q.ev = kept
	q.stale = 0
	if n := len(q.ev); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			q.siftDown(i)
		}
	}
	q.rebound()
}

func (q *eventQueue) maybeCompact() {
	if len(q.ev) >= compactMin && q.stale*2 > len(q.ev) {
		q.compact()
	}
}
