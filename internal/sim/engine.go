package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// event is a single entry in the engine's time-ordered queue. An event
// either resumes a parked Proc or runs a callback in the engine context.
// Events are stored by value inside eventQueue's pooled slice; the engine
// never allocates per event in steady state.
type event struct {
	at   Time
	seq  uint64  // tie-breaker: FIFO among events at the same instant
	proc *Proc   // if non-nil, resume this proc...
	gen  uint64  // ...but only if it is still parked on this generation
	data payload // value returned from the proc's park
	fn   func()  // if proc is nil, run this callback
}

// maxTime is the open-ended run limit used by Run.
const maxTime = Time(math.MaxInt64)

// Engine is a deterministic discrete-event simulator. It owns the
// simulated clock and the event queue, and runs exactly one proc or
// callback at a time. All mutation of simulation state therefore happens
// race-free, without locks, in a well-defined order.
//
// The engine loop runs on the goroutine that calls Run/RunUntil (a
// Cluster runs every shard on one engine), and every Proc is a
// coroutine. A proc that parks carries the loop forward itself:
// callbacks, link events and its own wakeup run inline with no switch at
// all, the same way dIPC threads cross protection domains without
// trapping into the kernel. Only when the next event wakes a different
// proc does the parking proc yield to the loop, which resumes the target
// — two coroutine switches, never a trip through the Go scheduler. Close
// unwinds the procs still parked when a run is over.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue
	rng    *Rand

	handoff  *Proc   // proc the loop resumes next; set by schedule
	live     int     // procs spawned and not yet finished
	procs    []*Proc // roster of spawned procs (deadlock diagnostics, Close)
	panicVal any     // re-thrown panic from a proc or callback
	closed   bool    // Close has run; the engine schedules nothing more

	limit Time // events scheduled after this instant stay queued
}

// NewEngine returns an engine with the clock at zero and the given
// deterministic seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		limit: maxTime,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of queued events, including stale entries
// (abandoned timers and superseded wakeups) that will be dropped when
// reached.
func (e *Engine) Pending() int { return e.events.len() }

// push enqueues an event, classifying it immediately: a proc event whose
// generation is already superseded or consumed (a Wake on a stale Waiter)
// is counted stale at birth, everything else is charged to the proc's
// queued count so the bookkeeping in bumpGen/procExited/schedule can move
// the whole batch to stale the moment it becomes undeliverable.
//
//dipcvet:noalloc
func (e *Engine) push(at Time, p *Proc, gen uint64, data payload, fn func()) {
	if e.closed {
		panicClosed()
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	if p != nil {
		if !p.finished && gen == p.gen && gen > p.delivered {
			p.queued++
		} else {
			e.events.stale++
		}
	}
	e.events.push(event{at: at, seq: e.seq, proc: p, gen: gen, data: data, fn: fn})
	e.events.maybeCompact()
}

// pushSeq enqueues a link-delivery event carrying an explicit,
// caller-owned sequence number (the banded cross-link ordering, see
// link.go) instead of the engine counter. The event dispatches lk's
// handler with the unboxed word v (the link rides in the payload's boxed
// slot — a pointer store, no allocation). Link.SendU64 never schedules
// into the past: its delay is at least the link's non-negative
// lookahead.
//
//dipcvet:noalloc
func (e *Engine) pushSeq(at Time, seq uint64, lk *Link, v uint64) {
	if e.closed {
		panicClosed()
	}
	e.events.push(event{at: at, seq: seq, data: payload{kind: payU64, boxed: lk, u64: v}})
}

// bumpGen moves p to its next wake generation. Every event queued for the
// old generation becomes permanently undeliverable at this instant, so the
// whole batch is reclassified as stale in O(1).
func (e *Engine) bumpGen(p *Proc) {
	e.events.stale += p.queued
	p.queued = 0
	p.gen++
	e.events.maybeCompact()
}

// procExited records that p finished: any wakeups still queued for it are
// now stale. The roster is compacted once finished procs dominate it, so
// churn-heavy models do not accumulate dead entries.
func (e *Engine) procExited(p *Proc) {
	e.events.stale += p.queued
	p.queued = 0
	e.live--
	if len(e.procs) >= 64 && e.live*2 < len(e.procs) {
		kept := e.procs[:0]
		for _, q := range e.procs {
			if !q.finished {
				kept = append(kept, q)
			}
		}
		for i := len(kept); i < len(e.procs); i++ {
			e.procs[i] = nil
		}
		e.procs = kept
	}
}

// BlockedProcs returns the names of live procs that are parked with no
// event queued to wake them — the threads a deadlock diagnostic should
// name. It is meaningful between runs (no proc is executing then); a
// proc whose wakeup is merely scheduled beyond a RunUntil window does
// not count as blocked.
func (e *Engine) BlockedProcs() []string {
	var out []string
	for _, p := range e.procs {
		if !p.finished && p.queued == 0 {
			out = append(out, p.name)
		}
	}
	return out
}

// DeadlockError reports that a simulation went quiet — no deliverable
// event left — while procs were still parked waiting for wakeups that
// can no longer arrive.
type DeadlockError struct {
	Blocked []string // names of the parked procs
}

func (e *DeadlockError) Error() string {
	const show = 8
	names := e.Blocked
	extra := ""
	if len(names) > show {
		extra = fmt.Sprintf(" and %d more", len(names)-show)
		names = names[:show]
	}
	return fmt.Sprintf("sim: deadlock: %d proc(s) blocked with no pending event: %s%s",
		len(e.Blocked), strings.Join(names, ", "), extra)
}

// Deadlock returns a DeadlockError naming the blocked procs if the
// engine has live procs but no deliverable event, nil otherwise.
func (e *Engine) Deadlock() error {
	if e.live == 0 || e.events.live() > 0 {
		return nil
	}
	return &DeadlockError{Blocked: e.BlockedProcs()}
}

// At schedules fn to run in the engine context after delay d. The callback
// must not park (it does not run on a Proc); it is intended for timers,
// interrupt delivery and bookkeeping.
func (e *Engine) At(d Time, fn func()) {
	e.push(e.now+d, nil, 0, payload{}, fn)
}

// AtU64 is At for a callback that takes a word: fn(v) runs in the
// engine context after delay d. The word rides the event's unboxed lane
// and fn its boxed slot (a func value is pointer-shaped, so storing it
// allocates nothing), so a caller that builds fn once schedules timers
// with no per-call closure. The event takes the same (at, seq) slot an
// At call would.
//
//dipcvet:noalloc
func (e *Engine) AtU64(d Time, fn func(uint64), v uint64) {
	e.push(e.now+d, nil, 0, payload{kind: payU64, boxed: fn, u64: v}, nil)
}

// Spawn creates a new simulated thread running fn and schedules it to
// start after delay d. fn runs as a coroutine that executes only while
// the engine has dispatched it; when fn returns, the loop carries on
// with the next event.
func (e *Engine) Spawn(name string, d Time, fn func(p *Proc)) *Proc {
	if e.closed {
		panicClosed()
	}
	p := &Proc{eng: e, name: name}
	p.next, p.stop = newCoro(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finished = true
			e.procExited(p)
			if r := recover(); r != nil && r != errProcStopped && e.panicVal == nil {
				e.panicVal = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
			}
		}()
		fn(p)
	})
	e.live++
	e.procs = append(e.procs, p)
	e.bumpGen(p)
	e.push(e.now+d, p, p.gen, payload{}, nil)
	return p
}

// errProcStopped is the sentinel park panics with when Close stops a
// parked proc; it unwinds the proc's stack, running its deferred code,
// and Spawn's wrapper recovers it.
var errProcStopped = errors.New("sim: proc stopped by Close")

// panicClosed reports a scheduling call on a closed engine — typically
// deferred code of a proc that Close is unwinding. It keeps the message
// off the //dipcvet:noalloc paths that check for it.
func panicClosed() {
	panic("sim: engine is closed: a proc unwound by Close must not park, spawn or schedule events")
}

// Close ends the simulation: every proc still parked (or never
// dispatched) is unwound so its coroutine exits, running the proc's
// deferred code. That deferred code must not park, spawn or schedule;
// doing so panics, and Close re-throws the first such panic after
// stopping every proc. Close must be called between runs, not from a
// proc or callback; calling it again does nothing, and running a closed
// engine panics.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// procExited compacts the roster while procs unwind, so stop them
	// from a copy.
	for _, p := range slices.Clone(e.procs) {
		if p.finished {
			continue
		}
		p.stop()
		if !p.finished { // never dispatched: its body never ran
			p.finished = true
			e.procExited(p)
		}
	}
	if e.panicVal != nil {
		v := e.panicVal
		e.panicVal = nil
		panic(v)
	}
}

// schedule is the engine loop body. It runs inline on whoever holds
// control — enter, or a parking proc — popping events until either the
// next wakeup targets a proc or a stop condition (queue empty, limit
// boundary, an aborting panic) ends the run.
//
// self names the parking proc, so its own wakeup is returned inline with
// no switch (woke reports it); self is nil when enter calls. A wakeup for
// any other proc is stored in the target's wake slot and the target
// recorded in e.handoff for enter to resume.
//
// Stale wakeups (a timer firing after its waiter was already woken
// through another path) are dropped at the head without advancing the
// clock, before the limit test, so an abandoned deadline inside a
// RunUntil window cannot bait the loop into delivering a live event
// scheduled after the window.
//
//dipcvet:noalloc
func (e *Engine) schedule(self *Proc) (pl payload, woke bool) {
	for {
		for e.events.len() > 0 && staleEvent(e.events.head()) {
			e.events.pop()
			e.events.stale--
		}
		if e.events.len() == 0 || e.events.head().at > e.limit {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		if ev.proc == nil {
			if ev.fn != nil {
				if !e.runCallback(ev.fn) {
					break // abort: enter re-throws panicVal
				}
			} else if !e.runWord(&ev) {
				break
			}
			continue
		}
		// Delivering this wakeup consumes the generation: any other event
		// still queued for it (say, the deadline timer of a WaitTimeout
		// that was woken early) is stale as of now.
		p := ev.proc
		p.delivered = ev.gen
		e.events.stale += p.queued - 1
		p.queued = 0
		if p == self {
			return ev.data, true
		}
		p.wake = ev.data
		e.handoff = p
		return payload{}, false
	}
	return payload{}, false
}

// runCallback executes a callback event, reporting false if it panicked.
// The panic is contained here — not allowed to unwind — because the loop
// may be running inside a parking proc: a raw panic would unwind that
// innocent proc's user code and be misattributed to it by Spawn's
// recover. Containing it means a panicking callback behaves identically
// wherever the loop runs: the loop stops and enter re-throws
// "sim: callback panicked".
//
//dipcvet:noalloc
func (e *Engine) runCallback(fn func()) (ok bool) {
	//dipcvet:alloc-ok open-coded defer; the closure stays on the stack
	defer func() {
		if r := recover(); r != nil && e.panicVal == nil {
			e.panicVal = fmt.Errorf("sim: callback panicked: %v", r)
		}
	}()
	fn()
	return true
}

// runWord delivers a word event — a link message (pushed by pushSeq)
// to the link's handler, or an AtU64 timer to its callback — with the
// same panic containment as runCallback.
//
//dipcvet:noalloc
func (e *Engine) runWord(ev *event) (ok bool) {
	//dipcvet:alloc-ok open-coded defer; the closure stays on the stack
	defer func() {
		if r := recover(); r != nil && e.panicVal == nil {
			if lk, ok := ev.data.boxed.(*Link); ok {
				e.panicVal = fmt.Errorf("sim: link %d handler panicked: %v", lk.id, r)
			} else {
				e.panicVal = fmt.Errorf("sim: callback panicked: %v", r)
			}
		}
	}()
	switch h := ev.data.boxed.(type) {
	case *Link:
		h.handler(ev.data.u64)
	case func(uint64):
		h(ev.data.u64)
	}
	return true
}

// enter drives the engine on the calling goroutine: it runs the loop,
// resumes each proc the loop hands control to until the run stops, then
// re-throws any panic a proc or callback raised. A proc that returns
// leaves the loop to enter, which carries on from the next event.
func (e *Engine) enter() {
	if e.closed {
		panic("sim: run of a closed engine")
	}
	e.schedule(nil)
	for e.handoff != nil {
		p := e.handoff
		e.handoff = nil
		if _, ok := p.next(); !ok && e.panicVal == nil {
			e.schedule(nil)
		}
	}
	if e.panicVal != nil {
		v := e.panicVal
		e.panicVal = nil
		panic(v)
	}
}

// Run processes events until the queue is empty. If Procs remain parked
// with no pending event to wake them, the simulation has deadlocked; Run
// returns a DeadlockError naming the blocked procs (callers that park
// worker pools on purpose — setup phases, service loops awaiting traffic
// — ignore it and keep driving the sim).
func (e *Engine) Run() error {
	e.limit = maxTime
	e.enter()
	return e.Deadlock()
}

// RunUntil processes events up to and including time t, then sets the
// clock to t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.limit = t
	e.enter()
	e.limit = maxTime
	if e.now < t {
		e.now = t
	}
}
