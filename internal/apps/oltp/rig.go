package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// rig is the single machine every front-door runner (Run,
// RunChainFaults, RunOpenLoop) drives from off-machine clients: one
// engine, one machine on the default cost model, the OLTP parameters,
// the Gateway the clients submit to, the attempt-level counters the
// hop Retriers bump, and the closed-loop clients' outcomes.
type rig struct {
	eng *sim.Engine
	m   *kernel.Machine
	prm *Params
	gw  *Gateway
	rel stats.Reliability

	// closedLoop's clients record here: outcomes counts the window's
	// completions (OpsOK, OpsFailed), okLatency sums the latency of its
	// successes, and completed counts every completion. No runner reads
	// a closed-loop percentile, so this is not a stats.Accumulator: its
	// 7.5 KiB histogram would add about 8% to perfbench's fig8 setup_s
	// and 7% to its alloc_bytes_per_req.
	outcomes  stats.Reliability
	okLatency sim.Time
	completed int64
}

func newRig(seed uint64, cpus int, gwc GatewayConfig) *rig {
	eng := sim.NewEngine(seed + 1)
	prm := DefaultParams()
	return &rig{eng: eng, m: kernel.NewMachine(eng, cost.Default(), cpus), prm: prm, gw: NewGateway(eng, prm, gwc)}
}

// serve spawns the front worker pool: n threads of proc named name-0..
// name-(n-1). Under dIPC (rt non-nil) each first enters process code,
// since the CODOMs subject comes from the instruction pointer; then it
// loops forever receiving from the gateway, running handle, and
// replying with handle's error.
func (r *rig) serve(proc *kernel.Process, rt *core.Runtime, name string, n int,
	handle func(t *kernel.Thread, req *request) error,
) {
	for i := 0; i < n; i++ {
		r.m.Spawn(proc, fmt.Sprintf("%s-%d", name, i), nil, func(t *kernel.Thread) {
			if rt != nil {
				mustEnter(rt, t)
			}
			for {
				req := r.gw.Recv(t)
				r.gw.Reply(t, req, handle(t, req))
			}
		})
	}
}

// serveChain wires cfg's tier chain behind the gateway: every hop is a
// Retrier (around a Breaker when brc is non-nil) counting into r.rel,
// the fault plan is installed on the sim clock, and cfg.Threads gateway
// workers ("gw-N") each do the front's work and call down the chain,
// reporting the outcome in-band. It returns the breakers in hop order.
func (r *rig) serveChain(cfg *ChainFaultsConfig, brc *BreakerConfig) []*Breaker {
	inj := faults.NewInjector(cfg.Plan)
	var breakers []*Breaker
	wrap := func(tr Transport, hop int) Transport {
		if brc != nil {
			br := NewBreaker(tr, *brc)
			breakers = append(breakers, br)
			tr = br
		}
		return &Retrier{Inner: tr, Policy: cfg.Retry, Rel: &r.rel,
			Jitter: retryJitter(cfg.Retry, cfg.Plan, fmt.Sprintf("hop%d", hop))}
	}
	front, rt, transports := buildChain(cfg.tiers(), r.m, r.prm, inj, wrap)

	// The plan is wired; schedule its events on the sim clock. A plan
	// naming a target this mode doesn't have (e.g. killing "svc2" under
	// Ideal, whose tiers share one process) is a scenario bug — fail loud.
	if err := inj.Install(); err != nil {
		panic(fmt.Sprintf("oltp: chain plan: %v", err))
	}

	r.serve(front, rt, "gw", cfg.Threads, func(t *kernel.Thread, _ *request) error {
		t.ExecUser(cfg.Work)
		_, err := transports[0].TryCall(t, "hop", nil, cfg.ReqBytes)
		return err
	})
	return breakers
}

// closedLoop starts n off-machine clients that each submit a request,
// wait for its completion and submit the next. A client is a pair of
// engine callbacks, not a proc: it runs on no simulated CPU. Each
// client reuses one request and one Operation, whose query slice has
// room for the mix's largest plan from the start. With gen non-nil, gen
// refills client c's operation before every submission from the
// client's own stream sim.NewRand(seed*7919+c); with gen nil requests
// carry no operation. Each completion in [warmup, warmup+window], both
// ends included, counts in r.outcomes as OpsOK (adding its latency to
// r.okLatency) or OpsFailed; every completion counts in r.completed.
func (r *rig) closedLoop(n int, seed uint64, gen func(*sim.Rand, *Operation), warmup, window sim.Time) {
	for c := 0; c < n; c++ {
		rng := sim.NewRand(seed*7919 + uint64(c))
		req := &request{}
		if gen != nil {
			req.op = &Operation{Queries: make([]dbCall, 0, r.prm.maxPlan())}
		}
		submit := func() {
			req.started = r.eng.Now()
			if gen != nil {
				gen(rng, req.op)
			}
			r.gw.Submit(req)
		}
		req.done = func(v uint64) {
			r.completed++
			if end := r.eng.Now(); end >= warmup && end <= warmup+window {
				if v&3 != respOK {
					r.outcomes.OpsFailed++
				} else {
					r.outcomes.OpsOK++
					r.okLatency += end - req.started
				}
			}
			submit()
		}
		r.eng.At(0, submit)
	}
}

// measure snapshots the machine and r.rel at the end of warmup, runs
// the engine to warmup+window, and returns the window's machine
// breakdown and attempt-counter delta.
func (r *rig) measure(warmup, window sim.Time) (stats.Breakdown, stats.Reliability) {
	var baseBd stats.Breakdown
	var baseRel stats.Reliability
	r.eng.At(warmup, func() { baseRel = r.rel; baseBd = r.m.Snapshot() })
	r.eng.RunUntil(warmup + window)
	return r.m.Snapshot().Sub(baseBd), r.rel.Sub(baseRel)
}
