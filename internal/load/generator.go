package load

import (
	"errors"
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
// arrivals and hands them to a bounded pool of pre-spawned session
// procs (a LIFO free list, so slot reuse is deterministic). All state
// belongs to the owning engine; fold Acc across generators with
// stats.MergeAll.
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

	idle []sim.Waiter
}

// Start spawns the generator's procs on eng. The simulation must not
// have started yet.
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

	for i := 0; i < cfg.Sessions; i++ {
		eng.Spawn(fmt.Sprintf("load-sess%d", i), 0, g.session)
	}
	// The source spawns after the sessions so that by its first arrival
	// draw every slot has parked into the free list.
	eng.Spawn("load-src", 0, func(p *sim.Proc) { g.source(p) })
	return g
}

// source draws arrivals and dispatches them to free session slots.
func (g *Generator) source(p *sim.Proc) {
	for {
		p.Sleep(g.cfg.Arrivals.Next())
		now := p.Now()
		if now > g.cfg.MeasureEnd {
			return
		}
		inWin := now >= g.cfg.MeasureStart
		if n := len(g.idle); n > 0 {
			w := g.idle[n-1] // LIFO: deterministic slot reuse
			g.idle = g.idle[:n-1]
			if inWin {
				g.Sessions++
			}
			w.Wake(0, nil)
		} else if inWin {
			g.Balked++
		}
	}
}

// session runs one slot: park in the free list, serve an arriving
// client's request burst, repeat. A client whose request fails — times
// out, is rejected, errors — abandons the rest of its session: churn
// under overload returns the slot to the pool instead of piling more
// work onto a struggling system, while the open-loop arrival source
// keeps offering fresh clients. Only success keeps a client engaged,
// so every failed session costs exactly one counted failure no matter
// how fast the system reported it.
func (g *Generator) session(sp *sim.Proc) {
	for {
		w := sp.PrepareWait()
		g.idle = append(g.idle, w)
		sp.Wait()
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
				err, ok := v.(error)
				if !ok {
					panic(fmt.Sprintf("load: completion wake carried %T, want error or nil", v))
				}
				g.Acc.Rel.OpsFailed++
				if errors.Is(err, faults.ErrRejected) {
					g.Acc.Rel.Rejected++
				} else {
					g.Acc.Rel.Faults++
				}
			default:
				g.Acc.Rel.OpsOK++
				g.Acc.AddOp(end - start)
			}
		}
	}
}
