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
	co        coro    // the coroutine the proc's body runs in
	at        *Proc   // whose coroutine the proc's goroutine is blocked in; nil while running
	wake      payload // payload of a wakeup handed over by schedule
	gen       uint64
	delivered uint64 // highest generation whose wakeup was dispatched
	queued    int32  // live events in the engine heap for the current gen
	finished  bool
	nextDue   bool // co's next, not yield, makes its next switch
}

// Name returns the name given at Spawn time (used in traces and tests).
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park suspends the proc until the engine delivers a wakeup for the
// current generation. It carries the engine loop forward inline: either
// the next event wakes this proc — control never moves and the payload
// comes back with no switch — or control transfers to the proc the
// event wakes, or to the root when the run stops. first, if non-nil, is
// the event the loop dispatches before it pops anything (see
// Engine.schedule): Sleep's slow path passes the head it swapped its
// wakeup for.
//
// The switch is Engine.transfer from this proc instead of the root,
// written out in park's own frame together with swap's alternation of
// next and yield, so a resumed proc unwinds only through park, Sleep
// and its caller. The proc is resumed
//   - by the switch that delivers its wakeup: park returns it;
//   - because the body of the coroutine it was blocked in returned:
//     park carries the loop on, or hands control to the root if a
//     panic is pending;
//   - either way once Close has begun: park panics errProcStopped to
//     unwind the proc.
//
//dipcvet:noalloc
func (p *Proc) park(first *event) payload {
	e := p.eng
	if e.closed {
		panicClosed()
	}
	for {
		to := &e.rootAt
		if e.panicVal == nil {
			next, pl := e.schedule(p, first)
			first = nil
			if next == p {
				return pl
			}
			if next != nil {
				to = &next.at
			}
		}
		at := *to
		*to = nil
		p.at = at
		e.switches++
		var woke bool
		if at.nextDue {
			at.nextDue = false
			_, woke = at.co.next()
		} else {
			at.nextDue = true
			woke = at.co.yield(struct{}{})
		}
		p.at = nil
		if e.closed {
			panic(errProcStopped)
		}
		if woke {
			pl := p.wake
			p.wake = payload{}
			return pl
		}
	}
}

// Advance is Sleep(d) for the case where nothing can precede the
// wakeup: no queued entry is due at or before now+d, the wakeup stays
// within the RunUntil limit, and no event is queued for the proc's
// current generation. It then advances the clock in place, exactly as
// Sleep's fast path would, and reports true; otherwise it changes
// nothing and reports false, and the caller sleeps. The test is one
// compare against the queue's cached bound, which is conservative — a
// stale head or a closed engine makes it fail, as does a negative d —
// so Advance is small enough to inline into a caller's loop
// (Thread.Exec's slices).
func (p *Proc) Advance(d Time) bool {
	e := p.eng
	at := e.now + d
	if d < 0 || at >= e.events.bound || p.queued != 0 {
		return false
	}
	p.delivered = p.gen
	e.now = at
	return true
}

// Sleep advances simulated time by d from this Proc's perspective.
//
// Fast path: events are only ever pushed by whoever holds engine
// control, and that is this proc right now — so if the queue holds no
// live event at or before now+d, the engine loop could only pop this
// proc's own wakeup straight back. In that case the heap round trip and
// the park are skipped and the clock advances inline. No event is queued
// for a new generation, so the generation is not bumped either: the
// current one is consumed in place, exactly as delivering its wakeup
// would. The fast path is disabled across the RunUntil limit (the wakeup
// must stay queued past the window), where the queued event is
// observable.
//
// Slow path: the head is live and due first, so the loop's next step
// would pop it. The wakeup takes its place in one sift down
// (replaceTop) and the old head goes to the loop as its first event,
// rather than a push whose sift up is undone at once by a pop's sift
// down. Past the RunUntil limit, with a panic pending, on a closed
// engine (push reports it) or when the head sorts after the wakeup,
// Sleep takes the plain push and park.
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
			// events still queued for the generation become stale, the
			// generation is consumed, the clock stands at the wake time.
			if p.queued != 0 {
				q.stale += int(p.queued)
				p.queued = 0
				q.maybeCompact()
			}
			p.delivered = p.gen
			e.now = at
			return
		}
		// A link delivery due at the wake instant sorts after the wakeup
		// (its seq is in the link band), so the test is before, not at.
		wake := event{at: at, seq: e.seq + 1, proc: p, gen: p.gen + 1}
		if e.panicVal == nil && !e.closed && before(q.head(), &wake) {
			// bumpGen and push's bookkeeping, without push's sift.
			q.stale += int(p.queued)
			p.gen++
			p.queued = 1
			e.seq++
			head := q.replaceTop(wake)
			first := &head
			// The gen bump just above retires any event for the sleeper's
			// old generation, and the swapped-out head may be one: say a
			// Waiter.Wake(0, ...) for this proc queued before it slept.
			// Drop it as the loop would have.
			if staleEvent(first) {
				q.stale--
				first = nil
			}
			q.maybeCompact()
			p.park(first)
			return
		}
	}
	e.bumpGen(p)
	e.push(at, p, p.gen, payload{})
	p.park(nil)
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
	return p.park(nil).value()
}

// WaitU64 is Wait for wakers on the unboxed uint64 lane (WakeU64,
// WaitQueue.WakeOneU64): the word round-trips through the event heap and
// the proc's wake slot without interface boxing on either side. ok reports
// whether the wake actually carried a uint64 payload.
//
//dipcvet:noalloc
func (p *Proc) WaitU64() (v uint64, ok bool) {
	pl := p.park(nil)
	return pl.u64, pl.kind == payU64
}

// Valid reports whether the waiter could still deliver a wakeup: its proc
// is live, still on the waiter's generation, and that generation's wakeup
// has not already been dispatched. The delivered-watermark test matches
// push's staleness classification — after a wakeup is delivered the
// generation stays current until the proc's next PrepareWait or slow
// Sleep (a fast Sleep consumes it in place), and a Waiter for it must
// read as spent, not valid.
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
	w.p.eng.push(w.p.eng.now+d, w.p, w.gen, pl)
}
