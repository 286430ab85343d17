package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// event is a single entry in the engine's time-ordered queue. An event
// either resumes a parked Proc or runs a handler in the engine context:
// with proc nil, data.boxed holds the handler — a func() (At), a
// func(uint64) (AtU64) or a *Link (a link delivery) — and data.u64 its
// word. Events are stored by value inside eventQueue's pooled slice; the
// engine never allocates per event in steady state.
type event struct {
	at   Time
	seq  uint64  // tie-breaker: FIFO among events at the same instant
	proc *Proc   // if non-nil, resume this proc...
	gen  uint64  // ...but only if it is still parked on this generation
	data payload // value returned from the proc's park, or the handler
}

// maxTime is the open-ended run limit used by Run.
const maxTime = Time(math.MaxInt64)

// Engine is a deterministic discrete-event simulator. It owns the
// simulated clock and the event queue, and runs exactly one proc or
// callback at a time. All mutation of simulation state therefore happens
// race-free, without locks, in a well-defined order.
//
// Every Proc is a coroutine, and the engine loop runs on whichever
// goroutine holds control: the one that called Run/RunUntil (the root)
// or a proc that parks. A parking proc carries the loop forward itself:
// callbacks, link events and its own wakeup run inline with no switch at
// all. When the next event wakes a different proc, the parking proc
// transfers control straight to it — one coroutine switch, no trip back
// to the root and none through the Go scheduler — the way a dIPC call
// enters its callee through a proxy instead of a kernel dispatcher.
// park makes that switch inline, in its own frame, so a resumed proc
// returns straight through park and Sleep to its caller. Control
// returns to the root only when the run stops. Close unwinds the procs
// still parked when a run is over.
//
// Work that runs on no simulated CPU — the off-machine clients, the
// health detector, timers — is not a proc at all but a chain of
// callbacks (At, AtU64): it needs no coroutine, no stack and no switch.
//
// The event queue is a heap with a few fixed-delay timer lanes beside
// it. AtU64 timers (client deadlines, hedge timers, deferred replies)
// wait on the lane for their delay: a FIFO that is already in (at, seq)
// order, because the clock never goes back and seq only grows. Each
// nonempty lane keeps its earliest entry in the heap,
// so the heap's root is still the next event, and the loop, Sleep and
// Advance read it as before. The pop order is the one a single heap
// would give: (at, seq) is a total order, and merging sorted runs
// through a heap yields it whatever the split.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue
	rng    *Rand

	rootAt   *Proc   // whose coroutine the root is blocked in while procs run
	live     int     // procs spawned and not yet finished
	procs    []*Proc // roster of spawned procs (deadlock diagnostics, Close)
	panicVal any     // re-thrown panic from a proc or callback
	closed   bool    // Close has run; the engine schedules nothing more
	stats    Stats   // what the loop has done (Stats)
	folded   Stats   // the part of stats already added to the process totals

	limit Time // events scheduled after this instant stay queued
}

// NewEngine returns an engine with the clock at zero and the given
// deterministic seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:    NewRand(seed),
		limit:  maxTime,
		events: eventQueue{bound: maxTime, ceil: maxTime},
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Stats counts what an engine's loop has done since NewEngine. It is a
// host-side measurement: no simulated value depends on it, and no
// result or digest includes it.
type Stats struct {
	Dispatched uint64 // events the loop delivered: proc wakeups and callbacks
	Callbacks  uint64 // of those, At and AtU64 callbacks and link deliveries
	Switches   uint64 // coroutine switches, by park and by the root
	Spawned    uint64 // procs spawned
}

// Stats returns the engine's counts so far.
func (e *Engine) Stats() Stats { return e.stats }

// totals sums the Stats of every engine in the process, folded in as
// each run returns (TotalStats).
var totals struct{ dispatched, callbacks, switches, spawned atomic.Uint64 }

// TotalStats returns the Stats of every engine in the process summed
// over the runs that have returned, for a command that runs engines it
// does not own (dipcbench -engine-stats). Sums do not depend on the
// order the runs finish in, so the totals are the same whatever the
// number of workers that ran them.
func TotalStats() Stats {
	return Stats{totals.dispatched.Load(), totals.callbacks.Load(), totals.switches.Load(), totals.spawned.Load()}
}

// foldStats adds what the engine did since the last fold to the
// process totals.
func (e *Engine) foldStats() {
	s := e.Stats()
	totals.dispatched.Add(s.Dispatched - e.folded.Dispatched)
	totals.callbacks.Add(s.Callbacks - e.folded.Callbacks)
	totals.switches.Add(s.Switches - e.folded.Switches)
	totals.spawned.Add(s.Spawned - e.folded.Spawned)
	e.folded = s
}

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// after returns the instant d from now. It is the one place a delay
// becomes a time: a negative d means now, and a sum past the end of the
// clock saturates at maxTime, so the clock never goes back and an
// overflowing delay stays queued past any RunUntil limit.
//
//dipcvet:noalloc
func (e *Engine) after(d Time) Time {
	at := e.now + d
	if at < e.now { // d < 0, or the sum wrapped: now is never negative
		if d < 0 {
			return e.now
		}
		return maxTime
	}
	return at
}

// push enqueues an event due at at, which is not before now (after).
//
//dipcvet:noalloc
func (e *Engine) push(at Time, p *Proc, gen uint64, data payload) {
	e.events.push(e.event(at, p, gen, data))
}

// pushTimer enqueues a callback due d from now on the queue's timer
// lane for d (see eventQueue). The due time after(d) never decreases as
// the clock moves on, so the lane stays in (at, seq) order even for a
// negative or saturated delay.
//
//dipcvet:noalloc
func (e *Engine) pushTimer(d Time, data payload) {
	e.events.pushTimer(d, e.event(e.after(d), nil, 0, data))
}

// event builds the queue entry for a push, classifying it immediately:
// a proc event whose generation is already superseded or consumed (a
// Wake on a stale Waiter) is counted stale at birth, everything else is
// charged to the proc's queued count so the bookkeeping in
// bumpGen/procExited/schedule can move the whole batch to stale the
// moment it becomes undeliverable.
//
//dipcvet:noalloc
func (e *Engine) event(at Time, p *Proc, gen uint64, data payload) event {
	if e.closed {
		panicClosed()
	}
	e.seq++
	if p != nil {
		if !p.finished && gen == p.gen && gen > p.delivered {
			p.queued++
		} else {
			e.events.stale++
		}
	}
	return event{at: at, seq: e.seq, proc: p, gen: gen, data: data}
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
	e.events.stale += int(p.queued)
	p.queued = 0
	p.gen++
}

// procExited records that p finished: any wakeups still queued for it are
// now stale. The roster is compacted once finished procs dominate it, so
// churn-heavy models do not accumulate dead entries.
func (e *Engine) procExited(p *Proc) {
	e.events.stale += int(p.queued)
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
// interrupt delivery and bookkeeping. fn rides the event's boxed slot (a
// func value is pointer-shaped, so storing it allocates nothing).
func (e *Engine) At(d Time, fn func()) {
	e.push(e.after(d), nil, 0, payload{boxed: fn})
}

// AtU64 is At for a callback that takes a word: fn(v) runs in the
// engine context after delay d. The word rides the event's unboxed lane
// and fn its boxed slot (a func value is pointer-shaped, so storing it
// allocates nothing), so a caller that builds fn once schedules timers
// with no per-call closure. The event takes the same (at, seq) slot an
// At call would; it waits on the timer lane for d, so a caller that arms
// one delay over and over (the Router's hedge timers) keeps its timers
// out of the heap.
//
//dipcvet:noalloc
func (e *Engine) AtU64(d Time, fn func(uint64), v uint64) {
	e.pushTimer(d, payload{kind: payU64, boxed: fn, u64: v})
}

// Spawn creates a new simulated thread running fn and schedules it to
// start after delay d. fn runs as a coroutine that executes only while
// the engine has dispatched it; when fn returns, the goroutine that had
// switched into the proc's coroutine resumes and carries the loop on.
func (e *Engine) Spawn(name string, d Time, fn func(p *Proc)) *Proc {
	if e.closed {
		panicClosed()
	}
	p := &Proc{eng: e, name: name}
	p.startCoro(func(yield func(struct{}) bool) {
		p.co.yield = yield
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
	e.stats.Spawned++
	e.procs = append(e.procs, p)
	e.bumpGen(p)
	e.push(e.after(d), p, p.gen, payload{})
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
	e.events.setCeil(0)
	// procExited compacts the roster while procs unwind, so stop them
	// from a copy. A stopped proc's body returns into the goroutine
	// blocked in its coroutine; if that is a proc, it unwinds too, and
	// so on until the root resumes and its transfer returns.
	for _, p := range slices.Clone(e.procs) {
		switch {
		case p.finished:
		case p.co.yield == nil: // never dispatched: its body never runs
			p.co.stop()
			p.finished = true
			e.procExited(p)
		default:
			e.transfer(&p.at)
		}
	}
	if e.panicVal != nil {
		v := e.panicVal
		e.panicVal = nil
		panic(v)
	}
}

// schedule is the engine loop body. It runs inline on whoever holds
// control — the root in enter, or a parking proc — popping events until
// either the next wakeup targets a proc or a stop condition (queue
// empty, limit boundary, an aborting panic) ends the run; then it
// returns the target, or nil.
//
// self names the parking proc, so its own wakeup comes back as pl with
// no switch; self is nil when the root calls. A wakeup for any other
// proc is stored in the target's wake slot for the caller to transfer
// control to.
//
// first, if non-nil, is an event already taken off the queue — the head
// a slow Sleep swapped its own wakeup for — and is dispatched before
// anything is popped. The caller guarantees it is live, due within the
// limit and ordered before every queued event, so it is exactly the
// event the first pop would have returned.
//
// Stale wakeups (a wake for a generation its proc has left behind) are
// dropped at the head without advancing the clock, before the limit
// test, so a stale entry inside a RunUntil window cannot bait the loop
// into delivering a live event scheduled after the window.
//
//dipcvet:noalloc
func (e *Engine) schedule(self *Proc, first *event) (to *Proc, pl payload) {
	for {
		var ev event
		if first != nil {
			ev, first = *first, nil
		} else {
			for e.events.len() > 0 && staleEvent(e.events.head()) {
				e.events.pop()
				e.events.stale--
			}
			if e.events.len() == 0 || e.events.head().at > e.limit {
				break
			}
			ev = e.events.pop()
		}
		e.now = ev.at
		e.stats.Dispatched++
		if ev.proc == nil {
			e.stats.Callbacks++
			if !e.runWord(&ev) {
				break // abort: the root re-throws panicVal
			}
			continue
		}
		// Delivering this wakeup consumes the generation: any other event
		// still queued for it (a second Wake of the same Waiter) is stale
		// as of now.
		p := ev.proc
		p.delivered = ev.gen
		e.events.stale += int(p.queued) - 1
		p.queued = 0
		if p == self {
			return p, ev.data
		}
		p.wake = ev.data
		return p, payload{}
	}
	return nil, payload{}
}

// runWord runs an engine-context event — an At callback, an AtU64
// callback with its word, or a link delivery's word to the link's
// handler — reporting false if it panicked. The panic is contained
// here — not allowed to unwind — because the loop may be running inside
// a parking proc: a raw panic would unwind that innocent proc's user
// code and be misattributed to it by Spawn's recover. Containing it
// means a panicking handler behaves identically wherever the loop runs:
// the loop stops and the root re-throws "sim: callback panicked" (or
// "sim: link N handler panicked").
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
	case func():
		h()
	case func(uint64):
		h(ev.data.u64)
	case *Link:
		h.handler(ev.data.u64)
	}
	return true
}

// transfer hands control from the root (the caller of Run, RunUntil or
// Close) to a parked proc in one coroutine switch. Each participant is
// named by the field recording whose coroutine its goroutine is blocked
// in, nil while it runs: p.at for a proc, e.rootAt for the root.
// transfer switches on the coroutine *to names, and the root's goroutine
// becomes the one blocked there. It returns true when a later switch
// hands control back to the root, false when instead the body of that
// coroutine returned and the runtime resumed the root. A parking proc
// makes the same switch inline (Proc.park).
//
//dipcvet:noalloc
func (e *Engine) transfer(to **Proc) bool {
	at := *to
	*to = nil
	e.rootAt = at
	e.stats.Switches++
	ok := at.swap()
	e.rootAt = nil
	return ok
}

// enter drives the engine as the root: it runs the loop and transfers
// control to the first proc it wakes; procs then pass control among
// themselves until one of them finds the run over and transfers back.
// A proc body that returns resumes whoever was blocked in its coroutine;
// if that is the root, it carries the loop on. Last, enter re-throws any
// panic a proc or callback raised.
func (e *Engine) enter() {
	if e.closed {
		panic("sim: run of a closed engine")
	}
	for e.panicVal == nil {
		to, _ := e.schedule(nil, nil)
		if to == nil || e.transfer(&to.at) {
			break
		}
	}
	e.foldStats()
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
	e.setLimit(maxTime)
	e.enter()
	return e.Deadlock()
}

// RunUntil processes events up to and including time t, then sets the
// clock to t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	e.setLimit(t)
	e.enter()
	e.setLimit(maxTime)
	if e.now < t {
		e.now = t
	}
}

// setLimit sets the run limit and caps the queue's bound one past it,
// so Proc.Advance never moves the clock beyond the limit.
func (e *Engine) setLimit(t Time) {
	e.limit = t
	if t < maxTime {
		t++
	}
	e.events.setCeil(t)
}
