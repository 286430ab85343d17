package sim

// WaitQueue is a FIFO queue of parked Procs, the building block for
// futexes, pipe buffers, socket queues and scheduler wait lists. Wakeups
// are scheduled through the event queue, so they take effect in simulated
// time order like everything else. Waiters sit in a Queue: Wait pushes
// at the back, WakeOne pops from the front and skips a waiter that
// something else already woke.
type WaitQueue struct {
	q Queue[Waiter]
}

// Len returns the number of queued waiters, including any that
// something else already woke (WakeOne skips those; callers that care
// use its return value instead).
func (q *WaitQueue) Len() int { return q.q.Len() }

// timeoutMark distinguishes a timer wakeup from a genuine WakeOne. It
// has no size, so boxing it allocates nothing.
type timeoutMark struct{}

// TimedOut reports whether a value returned by Wait came from a timeout
// path (TimeoutValue) rather than an explicit wake.
func TimedOut(v any) bool {
	_, ok := v.(timeoutMark)
	return ok
}

// TimeoutValue returns the canonical timeout payload. Layers that build
// their own timed blocks on top of raw Waiter wakes (the kernel's
// BlockTimeout) deliver it so that TimedOut recognizes the wake.
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
		if w := q.q.PopFront(); w.Valid() {
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
	return woken
}
