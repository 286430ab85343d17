package sim

// WaitQueue is a FIFO queue of parked Procs. No model layer uses it:
// the kernel parks threads on its own TQueue, and WaitQueue stays for
// the engine's wake tests and perfbench's wake probe. Wakeups are
// scheduled through the event queue, so they take effect in simulated
// time order like everything else. Waiters sit in a Queue: Wait pushes
// at the back, WakeOne pops from the front and skips a waiter that
// something else already woke.
type WaitQueue struct {
	q Queue[Waiter]
}

// Wait parks p on the queue until a WakeOne delivers it, and
// returns the data passed by the waker.
func (q *WaitQueue) Wait(p *Proc) any {
	w := p.PrepareWait()
	q.q.PushBack(w)
	return p.Wait()
}

// WakeOne wakes the oldest still-valid waiter after delay d, delivering
// data. It reports whether a waiter was woken.
func (q *WaitQueue) WakeOne(d Time, data any) bool {
	for q.q.Len() > 0 {
		if w := q.q.PopFront(); w.Valid() {
			w.wake(d, boxPayload(data))
			return true
		}
	}
	return false
}
