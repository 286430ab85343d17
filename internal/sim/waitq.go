package sim

// WaitQueue is a FIFO queue of parked Procs, the building block for
// futexes, pipe buffers, socket queues and scheduler wait lists. Wakeups
// are scheduled through the event queue, so they take effect in simulated
// time order like everything else.
//
// Waiters sit in a Queue: Wait pushes at the back, WakeOne pops from
// the front, and a timeout removal blanks its slot in place instead of
// shifting the suffix. Blanked slots are skipped by the wake paths and
// trimmed from the ends eagerly, so the ring does not grow with timeout
// churn.
type WaitQueue struct {
	q    Queue[Waiter]
	dead int // blanked (removed) slots still in q
}

// Len returns the number of parked waiters (stale entries are pruned on
// the fly by the wake paths, so Len may briefly over-count after a
// timeout; callers that care use WakeOne's return value instead).
func (q *WaitQueue) Len() int { return q.q.Len() - q.dead }

// timeoutMark distinguishes a timer wakeup from a genuine WakeOne. It
// travels through the event queue as the unboxed payTimeout lane.
type timeoutMark struct{}

// TimedOut reports whether a value returned by Wait/WaitTimeout came from
// the timeout path rather than an explicit wake.
func TimedOut(v any) bool {
	_, ok := v.(timeoutMark)
	return ok
}

// TimeoutValue returns the canonical timeout payload. Layers that build
// their own timed blocks on top of raw Waiter wakes (the kernel's
// BlockTimeout) deliver it so that TimedOut recognizes the wake and the
// payload fast lane carries it unboxed end to end.
func TimeoutValue() any { return timeoutMark{} }

// Wait parks p on the queue until a WakeOne/WakeAll delivers it, and
// returns the data passed by the waker.
func (q *WaitQueue) Wait(p *Proc) any {
	w := p.PrepareWait()
	q.q.PushBack(w)
	return p.Wait()
}

// WaitU64 is Wait on the unboxed uint64 lane; pair with WakeOneU64. ok
// reports whether the wake carried a uint64 payload.
func (q *WaitQueue) WaitU64(p *Proc) (uint64, bool) {
	w := p.PrepareWait()
	q.q.PushBack(w)
	return p.WaitU64()
}

// WaitTimeout parks p for at most d. The boolean result is false if the
// wait timed out, in which case p has been removed from the queue.
func (q *WaitQueue) WaitTimeout(p *Proc, d Time) (any, bool) {
	w := p.PrepareWait()
	q.q.PushBack(w)
	w.wake(d, payload{kind: payTimeout})
	pl := p.park(nil)
	if pl.kind == payTimeout {
		q.remove(w)
		return nil, false
	}
	return pl.value(), true
}

// remove blanks w's slot so the wake paths skip it. O(n) scan, O(1)
// mutation: no suffix shift, no reallocation.
func (q *WaitQueue) remove(w Waiter) {
	for i := 0; i < q.q.Len(); i++ {
		if s := q.q.At(i); *s == w {
			*s = Waiter{}
			q.dead++
			q.trim()
			return
		}
	}
}

// trim drops dead slots from both ends of the queue so a timeout on the
// oldest or newest waiter (the common cases) leaves no residue at all.
func (q *WaitQueue) trim() {
	for q.q.Len() > 0 && q.q.At(0).p == nil {
		q.q.PopFront()
		q.dead--
	}
	for q.q.Len() > 0 && q.q.At(q.q.Len()-1).p == nil {
		q.q.PopBack()
		q.dead--
	}
}

// WakeOne wakes the oldest still-valid waiter after delay d, delivering
// data. It reports whether a waiter was woken.
func (q *WaitQueue) WakeOne(d Time, data any) bool {
	return q.wakeOne(d, boxPayload(data))
}

// WakeOneU64 is WakeOne with an unboxed uint64 payload (fast lane; pair
// with WaitU64).
func (q *WaitQueue) WakeOneU64(d Time, v uint64) bool {
	return q.wakeOne(d, payload{kind: payU64, u64: v})
}

func (q *WaitQueue) wakeOne(d Time, pl payload) bool {
	for q.q.Len() > 0 {
		w := q.q.PopFront()
		if w.p == nil {
			q.dead--
			continue
		}
		if w.Valid() {
			w.wake(d, pl)
			return true
		}
	}
	return false
}

// WakeAll wakes every valid waiter after delay d and returns how many were
// woken.
func (q *WaitQueue) WakeAll(d Time, data any) int {
	pl := boxPayload(data)
	woken := 0
	for q.q.Len() > 0 {
		if w := q.q.PopFront(); w.Valid() {
			w.wake(d, pl)
			woken++
		}
	}
	q.dead = 0
	return woken
}
