package sim

import (
	"fmt"
	"math"
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

// satAdd adds two non-negative times, saturating at maxTime instead of
// wrapping. The cluster horizon computation adds lookahead to "no events
// pending" markers (maxTime), which must stay at maxTime.
func satAdd(a, b Time) Time {
	if s := a + b; s >= a {
		return s
	}
	return maxTime
}

// Engine is a deterministic discrete-event simulator. It owns the
// simulated clock and the event queue, and hands control to exactly one
// goroutine at a time. All mutation of simulation state therefore happens
// race-free, without locks, in a well-defined order.
//
// Dispatch uses direct handoff: there is no dedicated engine goroutine.
// The scheduling loop (schedule) migrates onto whichever goroutine is
// running — when a proc parks, its own goroutine pops the next event and
// delivers the payload straight to the target's resume channel, the same
// way dIPC threads switch protection domains without trapping into the
// kernel. A dispatch therefore costs one channel handoff instead of the
// classic two (running proc -> engine goroutine -> next proc), a proc
// whose own wakeup is the next event resumes with no channel operation at
// all, and callback events run inline on whatever goroutine holds
// control.
type Engine struct {
	now    Time
	seq    uint64
	events eventQueue
	rng    *Rand

	boot     chan struct{} // control handback to the Run/RunUntil caller
	live     int           // procs spawned and not yet finished
	procs    []*Proc       // roster of spawned procs (deadlock diagnostics)
	panicVal any           // re-thrown panic from a proc or callback

	limit Time // events scheduled after this instant stay queued
}

// NewEngine returns an engine with the clock at zero and the given
// deterministic seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		boot:  make(chan struct{}),
		limit: maxTime,
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of queued events, including stale entries
// (abandoned timers and superseded wakeups) that will be dropped when
// reached. PendingLive excludes those.
func (e *Engine) Pending() int { return e.events.len() }

// PendingLive returns the number of queued events that can still be
// delivered: callbacks plus wakeups whose proc is on the event's
// generation. An abandoned WaitTimeout deadline timer, for example,
// counts toward Pending but not PendingLive.
func (e *Engine) PendingLive() int { return e.events.live() }

// Live returns the number of spawned Procs that have not yet finished.
func (e *Engine) Live() int { return e.live }

// push enqueues an event, classifying it immediately: a proc event whose
// generation is already superseded or consumed (a Wake on a stale Waiter)
// is counted stale at birth, everything else is charged to the proc's
// queued count so the bookkeeping in bumpGen/procExited/schedule can move
// the whole batch to stale the moment it becomes undeliverable.
//
//dipcvet:noalloc
func (e *Engine) push(at Time, p *Proc, gen uint64, data payload, fn func()) {
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
// link.go) instead of the engine counter. If fn is non-nil the event runs
// it as a callback; otherwise the event dispatches lk's handler with the
// unboxed word v (the link rides in the payload's boxed slot — a pointer
// store, no allocation). A delivery timestamp below the clock means a
// sender violated its declared lookahead, which the conservative protocol
// is supposed to make impossible — report the protocol bug loudly rather
// than silently reordering the past.
//
//dipcvet:noalloc
func (e *Engine) pushSeq(at Time, seq uint64, lk *Link, v uint64, fn func()) {
	if at < e.now {
		e.panicLookaheadViolated(at)
	}
	ev := event{at: at, seq: seq, fn: fn}
	if fn == nil {
		ev.data = payload{kind: payU64, boxed: lk, u64: v}
	}
	e.events.push(ev)
}

// panicLookaheadViolated keeps message construction off pushSeq's
// //dipcvet:noalloc delivery lane.
func (e *Engine) panicLookaheadViolated(at Time) {
	panic(fmt.Sprintf("sim: link delivery at %v behind shard clock %v (lookahead violated)", at, e.now))
}

// nextLiveTime returns the timestamp of the earliest deliverable event,
// pruning stale heads on the way. ok is false when nothing live remains.
// Only the cluster barrier calls this, so the pruning cannot race with a
// running shard.
func (e *Engine) nextLiveTime() (t Time, ok bool) {
	q := &e.events
	for q.len() > 0 && staleEvent(q.head()) {
		q.pop()
		q.stale--
	}
	if q.len() == 0 {
		return 0, false
	}
	return q.head().at, true
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

// Spawn creates a new simulated thread running fn and schedules it to
// start after delay d. The backing goroutine parks immediately and only
// executes while it holds engine control. When fn returns, the dying
// goroutine itself carries the engine loop forward, handing control to
// whichever goroutine the next event wakes.
func (e *Engine) Spawn(name string, d Time, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan payload),
	}
	e.live++
	e.procs = append(e.procs, p)
	//dipcvet:goroutine-ok coroutine carrier: the engine hands execution over the resume channel, one runner at a time
	go func() {
		<-p.resume // wait for first dispatch
		defer func() {
			p.finished = true
			e.procExited(p)
			if r := recover(); r != nil {
				if e.panicVal == nil {
					e.panicVal = fmt.Errorf("sim: proc %q panicked: %v", p.name, r)
				}
				e.boot <- struct{}{}
				return
			}
			e.finish()
		}()
		fn(p)
	}()
	e.bumpGen(p)
	e.push(e.now+d, p, p.gen, payload{}, nil)
	return p
}

// schedResult says where control went after a schedule call.
type schedResult uint8

const (
	schedStopped schedResult = iota // stop condition; the bootstrap has (or is being handed) control
	schedHanded                     // payload delivered to another proc's goroutine
	schedSelf                       // the next wakeup targeted self; payload returned inline
)

// schedule is the engine loop. It runs on the calling goroutine — the
// heart of direct-handoff dispatch — popping events until either control
// moves to another goroutine or a stop condition (queue empty, limit
// boundary, an aborting panic) returns it to the bootstrap.
//
// self names the proc whose goroutine is executing, so that proc's own
// wakeup can be returned inline with no channel operation; it is nil for
// the bootstrap and for a proc that has finished. isBoot marks the
// bootstrap itself: on stop it keeps control instead of signalling
// e.boot.
//
// Stale wakeups (a timer firing after its waiter was already woken
// through another path) are dropped at the head without advancing the
// clock, before the limit test, so an abandoned deadline inside a
// RunUntil window cannot bait the loop into delivering a live event
// scheduled after the window.
//
//dipcvet:noalloc
func (e *Engine) schedule(self *Proc, isBoot bool) (payload, schedResult) {
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
					break // abort: hand control home; enter re-throws panicVal
				}
			} else if !e.runLink(&ev) {
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
			return ev.data, schedSelf
		}
		p.resume <- ev.data
		return payload{}, schedHanded
	}
	if !isBoot {
		e.boot <- struct{}{}
	}
	return payload{}, schedStopped
}

// runCallback executes a callback event, reporting false if it panicked.
// The panic is contained here — not allowed to unwind — because the loop
// may be hosted by a parked proc's goroutine: a raw panic would unwind
// that innocent proc's user code and be misattributed to it by Spawn's
// recover. Containing it means a panicking callback behaves identically
// on every goroutine: the loop stops, control returns to the bootstrap,
// and enter re-throws "sim: callback panicked" there.
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

// runLink delivers a link message event (pushSeq with fn == nil) to the
// link's handler, with the same panic containment as runCallback.
//
//dipcvet:noalloc
func (e *Engine) runLink(ev *event) (ok bool) {
	lk := ev.data.boxed.(*Link)
	//dipcvet:alloc-ok open-coded defer; the closure stays on the stack
	defer func() {
		if r := recover(); r != nil && e.panicVal == nil {
			e.panicVal = fmt.Errorf("sim: link %d handler panicked: %v", lk.id, r)
		}
	}()
	lk.handler(ev.data.u64)
	return true
}

// finish continues the engine loop after a proc exits. The backstop
// recover converts a panic escaping the loop itself (an engine bug —
// callback panics are already contained by runCallback) into an engine
// panic delivered to the bootstrap instead of a process crash.
func (e *Engine) finish() {
	defer func() {
		if r := recover(); r != nil {
			if e.panicVal == nil {
				e.panicVal = fmt.Errorf("sim: engine loop panicked: %v", r)
			}
			e.boot <- struct{}{}
		}
	}()
	e.schedule(nil, false)
}

// enter drives the engine from the bootstrap goroutine, waits for control
// to come home if the loop handed it to a proc, then re-throws any panic
// a proc or callback raised.
func (e *Engine) enter() {
	if _, r := e.schedule(nil, true); r == schedHanded {
		<-e.boot
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
	e.runWindow(t)
	if e.now < t {
		e.now = t
	}
}

// runWindow is RunUntil without the final clock clamp: the cluster epoch
// loop runs each shard to its conservative horizon but needs the clock to
// stay at the last event actually delivered, so the next epoch's horizon
// computation sees honest times.
func (e *Engine) runWindow(limit Time) {
	e.limit = limit
	e.enter()
	e.limit = maxTime
}
