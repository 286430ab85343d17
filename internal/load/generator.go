package load

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Outcome classes: a request's completion word is id<<2 | class.
const (
	ClassOK       = 0 // the request succeeded
	ClassFailed   = 1 // it failed inside the system
	ClassRejected = 2 // admission control shed it (faults.ErrRejected)
)

// timedOut is the class a session's own deadline reports; no
// completion word carries it.
const timedOut = 3

// slotBits is the width of the session slot in a request ID; the rest
// numbers the generator's requests, so IDs are never reused.
const slotBits = 24

// Config parameterizes one open-loop generator.
type Config struct {
	// Arrivals is the session arrival process (required).
	Arrivals *Arrivals
	// Sessions bounds concurrent sessions — the connection pool. An
	// arrival finding every slot busy balks (is counted and lost), so
	// arrivals never block and the offered process stays open-loop.
	Sessions int
	// Requests is how many requests one session issues before its
	// client disconnects (connection churn).
	Requests int
	// Deadline bounds each request client-side; a request that has not
	// completed in time is abandoned and counted as a timeout, though
	// the system may still be burning work on it (0: wait forever).
	Deadline sim.Time
	// Window gates every counter: a request counts as offered when it
	// is issued inside the window, an outcome when it completes inside.
	// No session begins or issues after Window.End.
	Window stats.Window
	// Issue submits the request numbered id, now. The system must
	// complete it by scheduling done once with the word id<<2 | class,
	// class one of ClassOK, ClassFailed and ClassRejected (for
	// example with Engine.AtU64(d, done, word)). A word for a request
	// whose session has given up on it is ignored.
	Issue func(id uint64, done func(uint64))
}

// Generator drives one engine's open-loop traffic: an arrival source
// hands clients to a bounded pool of sessions. Both are engine
// callbacks, not procs: an off-machine client runs on no simulated CPU,
// so it needs no thread of its own. Each arrival takes the most
// recently parked idle session (a LIFO free list, so slot reuse is
// deterministic); only when none is idle does it create a new one, up
// to Config.Sessions, so a run pays for as many sessions as its peak
// concurrency. All state belongs to the owning engine; fold Acc across
// generators with stats.MergeAll.
type Generator struct {
	cfg Config
	eng *sim.Engine

	// Acc collects in-window outcomes: ops, latency sum, the latency
	// histogram (successes only) and the op-level Reliability counters
	// (OpsOK/OpsFailed/Timeouts/Rejected/Faults; attempt-level counters
	// belong to whatever Retrier sits below Issue).
	Acc stats.Accumulator
	// Offered counts requests issued in-window.
	Offered int64
	// Sessions counts sessions begun in-window.
	Sessions int64
	// Balked counts in-window arrivals lost to pool exhaustion.
	Balked int64
	// Created counts the sessions created so far, over the whole run:
	// the run's peak concurrency, at most Config.Sessions.
	Created int

	sessions []session // by slot
	idle     []uint64  // slots of the parked sessions, most recent last
	issued   uint64    // requests issued so far; numbers request IDs

	// The callbacks, built once so that scheduling them allocates
	// nothing.
	arriveFn  func()
	beginFn   func(uint64)
	doneFn    func(uint64)
	timeoutFn func(uint64)
}

// session is one slot's client: the request it waits for and how many
// it has issued.
type session struct {
	id    uint64   // the outstanding request's ID, 0 while none is
	start sim.Time // when the outstanding request was issued
	sent  int      // requests the current client has issued
}

// Start arms the generator's arrival source on eng; sessions are
// created as arrivals need them. The simulation must not have started
// yet.
func Start(eng *sim.Engine, cfg Config) *Generator {
	if cfg.Arrivals == nil {
		panic("load: Config.Arrivals is required")
	}
	if cfg.Issue == nil {
		panic("load: Config.Issue is required")
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 256
	}
	if cfg.Sessions > 1<<slotBits {
		panic("load: Config.Sessions exceeds 1<<24")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1
	}
	g := &Generator{cfg: cfg, eng: eng}
	g.arriveFn, g.beginFn, g.doneFn, g.timeoutFn = g.arrive, g.begin, g.done, g.timeout
	// The source starts at 0 and then waits for its first arrival.
	eng.At(0, func() { eng.At(cfg.Arrivals.Next(), g.arriveFn) })
	return g
}

// arrive dispatches one arrival to a session slot — an idle session if
// one is parked, else a new one while fewer than Sessions exist — and
// waits for the next. Waking a parked session and starting a new one
// take the same event slot, and sessions keep no state from one client
// to the next, so which of the two serves an arrival changes nothing
// the simulation observes.
//
//dipcvet:noalloc
func (g *Generator) arrive() {
	now := g.eng.Now()
	if now > g.cfg.Window.End {
		return
	}
	begun := true
	switch n := len(g.idle); {
	case n > 0:
		g.eng.AtU64(0, g.beginFn, g.idle[n-1]) // LIFO: deterministic slot reuse
		g.idle = g.idle[:n-1]
	case g.Created < g.cfg.Sessions:
		//dipcvet:alloc-ok one slot per session, at most Config.Sessions per run
		g.sessions = append(g.sessions, session{})
		g.eng.AtU64(0, g.beginFn, uint64(g.Created))
		g.Created++
	default:
		begun = false
	}
	if g.cfg.Window.In(now) {
		if begun {
			g.Sessions++
		} else {
			g.Balked++
		}
	}
	g.eng.At(g.cfg.Arrivals.Next(), g.arriveFn)
}

// begin starts the client that arrived at session slot.
//
//dipcvet:noalloc
func (g *Generator) begin(slot uint64) {
	g.sessions[slot].sent = 0
	g.issue(slot)
}

// issue sends the session's next request, armed with its deadline, or
// parks the session in the free list once its client is done.
//
//dipcvet:noalloc
func (g *Generator) issue(slot uint64) {
	s := &g.sessions[slot]
	now := g.eng.Now()
	if s.sent == g.cfg.Requests || now > g.cfg.Window.End {
		//dipcvet:alloc-ok pooled capacity: the free list grows to the peak number of idle sessions
		g.idle = append(g.idle, slot)
		return
	}
	g.issued++
	s.id, s.start = g.issued<<slotBits|slot, now
	s.sent++
	if g.cfg.Deadline > 0 {
		g.eng.AtU64(g.cfg.Deadline, g.timeoutFn, s.id)
	}
	if g.cfg.Window.In(now) {
		g.Offered++
	}
	g.cfg.Issue(s.id, g.doneFn)
}

// done takes a completion word from the system.
//
//dipcvet:noalloc
func (g *Generator) done(v uint64) { g.complete(v>>2, v&3) }

// timeout fires a request's deadline.
//
//dipcvet:noalloc
func (g *Generator) timeout(id uint64) { g.complete(id, timedOut) }

// complete ends request id with class, unless its session no longer
// waits for it: whichever of the completion and the deadline comes
// first wins, and the other is a no-op. A client whose request fails —
// times out, is rejected, errors — abandons the rest of its session:
// churn under overload returns the slot to the pool instead of piling
// more work onto a struggling system, while the open-loop arrival
// source keeps offering fresh clients. Only success keeps a client
// engaged, so every failed session costs exactly one counted failure
// no matter how fast the system reported it.
//
//dipcvet:noalloc
func (g *Generator) complete(id, class uint64) {
	slot := id & (1<<slotBits - 1)
	s := &g.sessions[slot]
	if s.id != id {
		return
	}
	s.id = 0
	if end := g.eng.Now(); g.cfg.Window.In(end) {
		switch class {
		case ClassOK:
			g.Acc.Rel.OpsOK++
			g.Acc.AddOp(end - s.start)
		case timedOut:
			g.Acc.Rel.OpsFailed++
			g.Acc.Rel.Timeouts++
		case ClassRejected:
			g.Acc.Rel.OpsFailed++
			g.Acc.Rel.Rejected++
		default:
			g.Acc.Rel.OpsFailed++
			g.Acc.Rel.Faults++
		}
	}
	if class != ClassOK {
		s.sent = g.cfg.Requests // abandon: the next issue parks the session
	}
	g.issue(slot)
}
