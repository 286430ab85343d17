package load

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

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
	// MeasureStart and MeasureEnd gate every counter: requests count as
	// offered by issue time, outcomes by completion time.
	MeasureStart, MeasureEnd sim.Time
	// Issue fires one request on the session's proc, arranging for w to
	// be woken on completion with nil (success) or an error. A wake
	// wrapping faults.ErrRejected counts as shed by admission control.
	Issue func(p *sim.Proc, w sim.Waiter)
}

// Generator drives one engine's open-loop traffic: a source proc draws
// arrivals and hands them to a bounded pool of session procs. An
// arrival takes the most recently parked idle session (a LIFO free
// list, so slot reuse is deterministic); only when none is idle does it
// spawn a new one, up to Config.Sessions, so a run pays for as many
// sessions as its peak concurrency. All state belongs to the owning
// engine; fold Acc across generators with stats.MergeAll.
type Generator struct {
	cfg Config

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
	// Spawned counts the session procs spawned so far, over the whole
	// run: the run's peak concurrency, at most Config.Sessions.
	Spawned int

	idle []sim.Waiter
}

// Start spawns the generator's arrival source on eng; sessions are
// spawned as arrivals need them. The simulation must not have started
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
	if cfg.Requests <= 0 {
		cfg.Requests = 1
	}
	g := &Generator{cfg: cfg, idle: make([]sim.Waiter, 0, cfg.Sessions)}
	eng.Spawn("load-src", 0, g.source)
	return g
}

// source draws arrivals and dispatches them to session slots: an idle
// session if one is parked, else a new one while fewer than Sessions
// exist. Spawning at delay 0 takes the same event slot as waking a
// parked session, and sessions hold no per-slot state, so which of the
// two serves an arrival changes nothing the simulation observes.
//
//dipcvet:noalloc
func (g *Generator) source(p *sim.Proc) {
	for {
		p.Sleep(g.cfg.Arrivals.Next())
		now := p.Now()
		if now > g.cfg.MeasureEnd {
			return
		}
		inWin := now >= g.cfg.MeasureStart
		n := len(g.idle)
		switch {
		case n > 0:
			w := g.idle[n-1] // LIFO: deterministic slot reuse
			g.idle = g.idle[:n-1]
			w.Wake(0, nil)
		case g.Spawned < g.cfg.Sessions:
			// The new session serves this client before it first parks.
			//dipcvet:alloc-ok one proc per session slot, at most Config.Sessions per run
			p.Engine().Spawn(fmt.Sprintf("load-sess%d", g.Spawned), 0, g.session)
			g.Spawned++
		default:
			if inWin {
				g.Balked++
			}
			continue
		}
		if inWin {
			g.Sessions++
		}
	}
}

// session runs one slot: serve the arriving client's request burst,
// park in the free list until the next client, repeat. A client whose
// request fails — times out, is rejected, errors — abandons the rest
// of its session: churn under overload returns the slot to the pool
// instead of piling more work onto a struggling system, while the
// open-loop arrival source keeps offering fresh clients. Only success
// keeps a client engaged, so every failed session costs exactly one
// counted failure no matter how fast the system reported it.
func (g *Generator) session(sp *sim.Proc) {
	for {
		abandoned := false
		for r := 0; r < g.cfg.Requests && !abandoned; r++ {
			start := sp.Now()
			if start > g.cfg.MeasureEnd {
				break
			}
			var d sim.Waiter
			if g.cfg.Deadline > 0 {
				d = sp.PrepareTimedWait(g.cfg.Deadline)
			} else {
				d = sp.PrepareWait()
			}
			if start >= g.cfg.MeasureStart {
				g.Offered++
			}
			g.cfg.Issue(sp, d)
			v, completed := sp.WaitTimed()
			end := sp.Now()
			abandoned = !completed || v != nil
			if end < g.cfg.MeasureStart || end > g.cfg.MeasureEnd {
				continue
			}
			switch {
			case !completed:
				g.Acc.Rel.OpsFailed++
				g.Acc.Rel.Timeouts++
			case v != nil:
				g.Acc.Rel.OpsFailed++
				if faults.Class(wakeErr(v)) == faults.ErrRejected {
					g.Acc.Rel.Rejected++
				} else {
					g.Acc.Rel.Faults++
				}
			default:
				g.Acc.Rel.OpsOK++
				g.Acc.AddOp(end - start)
			}
		}
		w := sp.PrepareWait()
		g.idle = append(g.idle, w)
		sp.Wait()
	}
}

// wakeErr returns the error a completion wake carried. The wrappers the
// request path builds (faults.Error, faults.RemoteError) are matched by
// concrete type, which costs a compare; only another type takes the
// assertion to error.
//
//dipcvet:noalloc
func wakeErr(v any) error {
	switch e := v.(type) {
	case *faults.Error:
		return e
	case *faults.RemoteError:
		return e
	}
	err, ok := v.(error) //dipcvet:alloc-ok reached only by error types the request path does not build
	if !ok {
		panicNotError(v)
	}
	return err
}

// panicNotError reports a completion wake that carried no error.
func panicNotError(v any) {
	panic(fmt.Sprintf("load: completion wake carried %T, want error or nil", v))
}
