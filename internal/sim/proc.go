package sim

// Proc is a simulated thread of execution. Its code runs as a coroutine
// that the engine loop resumes, so a Proc only runs between a dispatch
// and the next park, one at a time. Simulated time advances only while
// the Proc is parked (Sleep) — computation itself is free unless the
// caller charges for it explicitly, which is exactly what the kernel layer
// does with its cost model.
type Proc struct {
	eng       *Engine
	name      string
	next      func() (struct{}, bool) // resume the coroutine (enter's loop)
	stop      func()                  // unwind the coroutine (Close)
	yield     func(struct{}) bool     // suspend back to the loop (park)
	wake      payload                 // payload of a wakeup handed over by schedule
	gen       uint64
	delivered uint64 // highest generation whose wakeup was dispatched
	queued    int    // live events in the engine heap for the current gen
	finished  bool
}

// Name returns the name given at Spawn time (used in traces and tests).
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park suspends the proc until the engine delivers a wakeup for the
// current generation. It first carries the engine loop forward inline:
// either the next event wakes this proc — control never moves and the
// payload comes back with no switch — or the loop hands control to
// another proc, and this coroutine yields until its own wakeup resumes
// it. A yield that returns false means Close is stopping the proc.
//
//dipcvet:noalloc
func (p *Proc) park() payload {
	e := p.eng
	if e.closed {
		panicClosed()
	}
	if pl, woke := e.schedule(p); woke {
		return pl
	}
	if !p.yield(struct{}{}) {
		panic(errProcStopped)
	}
	pl := p.wake
	p.wake = payload{}
	return pl
}

// Sleep advances simulated time by d from this Proc's perspective.
//
// Fast path: events are only ever pushed by whoever holds engine
// control, and that is this proc right now — so if the queue holds no
// live event at or before now+d, the engine loop could only pop this
// proc's own wakeup straight back. In that case the heap round trip, the
// generation bookkeeping of delivery and the park are all skipped and
// the clock advances inline. The fast path is disabled
// across the RunUntil limit (the wakeup must stay queued past the
// window), where the queued event is observable.
//
//dipcvet:noalloc
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	e := p.eng
	at := e.now + d
	if at <= e.limit {
		q := &e.events
		for q.len() > 0 && staleEvent(q.head()) {
			q.pop()
			q.stale--
		}
		if q.len() == 0 || q.head().at > at {
			if e.closed {
				panicClosed()
			}
			// Exactly the state a delivered wakeup would leave behind:
			// prior events for the old generation become stale, the new
			// generation is consumed, the clock stands at the wake time.
			e.bumpGen(p)
			p.delivered = p.gen
			e.now = at
			return
		}
	}
	e.bumpGen(p)
	e.push(at, p, p.gen, payload{}, nil)
	p.park()
}

// Waiter is a one-shot wake handle for a parked Proc. It is created
// before parking (PrepareWait) so that wakers racing with the sleeper in
// simulated time have a stable token; a Waiter whose generation has passed
// is silently ignored.
type Waiter struct {
	p   *Proc
	gen uint64
}

// PrepareWait arms the Proc for a Wait and returns the handle other code
// can use to wake it. It must be followed by Wait on the same Proc.
//
//dipcvet:noalloc
func (p *Proc) PrepareWait() Waiter {
	p.eng.bumpGen(p)
	return Waiter{p: p, gen: p.gen}
}

// Wait parks until the Waiter from the preceding PrepareWait is fired,
// returning the data passed to Wake.
func (p *Proc) Wait() any {
	return p.park().value()
}

// WaitU64 is Wait for wakers on the unboxed uint64 lane (WakeU64,
// WaitQueue.WakeOneU64): the word round-trips through the event heap and
// the proc's wake slot without interface boxing on either side. ok reports
// whether the wake actually carried a uint64 payload.
//
//dipcvet:noalloc
func (p *Proc) WaitU64() (v uint64, ok bool) {
	pl := p.park()
	return pl.u64, pl.kind == payU64
}

// Valid reports whether the waiter could still deliver a wakeup: its proc
// is live, still on the waiter's generation, and that generation's wakeup
// has not already been dispatched. The delivered-watermark test matches
// push's staleness classification — after a wakeup is delivered the
// generation stays current until the proc's next PrepareWait/Sleep, and a
// Waiter for it must read as spent, not valid.
func (w Waiter) Valid() bool {
	return w.p != nil && !w.p.finished && w.gen == w.p.gen && w.gen > w.p.delivered
}

// Wake schedules the waiter's Proc to resume after delay d, delivering
// data from its Wait call. Firing a stale Waiter is harmless: the engine
// classifies the event as stale at push time and never delivers it.
func (w Waiter) Wake(d Time, data any) {
	w.wake(d, boxPayload(data))
}

// WakeU64 is Wake with an unboxed uint64 payload (fast lane; pair with
// WaitU64 to stay unboxed end to end).
//
//dipcvet:noalloc
func (w Waiter) WakeU64(d Time, v uint64) {
	w.wake(d, payload{kind: payU64, u64: v})
}

//dipcvet:noalloc
func (w Waiter) wake(d Time, pl payload) {
	if w.p == nil {
		return
	}
	w.p.eng.push(w.p.eng.now+d, w.p, w.gen, pl, nil)
}
