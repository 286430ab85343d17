// Fault-injected rack: the multi-machine ring of the rack scenario with
// per-NIC link failure states, per-operation deadlines with capped
// exponential backoff at the clients, and a faults.Plan firing kill /
// restart / link events on the sim clock. It is the one ring runner:
// the rack scenario runs it with no plan and no deadline. The runner follows
// the cluster's ownership discipline — each LinkState is toggled by
// injector events on its owning shard's engine and read only by that
// shard's threads, clients time out with Waiter-armed deadline wakes on
// their own shard — so every run is digest-identical at every shard
// count.

package experiments

import (
	"fmt"

	"repro/internal/apps/netpipe"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RackChaosConfig is one fault-injected rack run.
type RackChaosConfig struct {
	RackConfig
	// Plan is the fault schedule. Targets: processes "svc1".."svcN"
	// (machine index = tier index), links "link0".."linkN" (machine
	// i's transmit NIC). Nil: fault-free.
	Plan *faults.Plan
	// Retry is the clients' per-operation policy. Zero-value fields
	// default to Deadline 150us, Backoff 10us, MaxRetries 0.
	Retry faults.RetryPolicy
}

// RackChaosResult is the degradation measurement of one chaos run.
type RackChaosResult struct {
	Rel          stats.Reliability // merged window counters
	Goodput      float64           // successful ops per second
	ErrorRate    float64
	Availability float64
	RetryAmp     float64
	AvgLatency   sim.Time // mean latency of successful in-window ops
	PerMachine   []*stats.Accumulator
	Merged       stats.Accumulator
	LinkDowntime []sim.Time // per transmit link, total down time
}

// RunRackChaos builds the ring with failure hooks and runs the plan.
func RunRackChaos(c RackChaosConfig) *RackChaosResult {
	if c.Retry.Deadline == 0 {
		c.Retry.Deadline = sim.Micros(150)
	}
	if c.Retry.Backoff == 0 {
		c.Retry.Backoff = sim.Micros(10)
	}
	return runRack(c)
}

// runRack builds the ring on a sim.Cluster and runs warmup + window. A
// zero c.Retry.Deadline means no deadline: clients wait untimed, so a
// fault-free run arms no timer that would only go stale.
//
// The model follows the cluster's ownership discipline: each machine
// (and the clients, which live on machine 0's shard) is one part; parts
// interact only through the ring links; the clients draw think time
// from their own Rand streams seeded by client index; and links are
// created in fixed machine order regardless of the shard count.
//
// Request IDs encode (sequence << 16 | client index): a client only
// accepts the completion of its current sequence number, so a retry
// racing its own timed-out predecessor around the ring can never be
// double-counted. A request reaching a dead tier or a downed transmit
// link is dropped — the client learns of it only through its deadline,
// exactly like a lost packet.
func runRack(c RackChaosConfig) *RackChaosResult {
	cl := sim.NewCluster(c.Seed, c.Shards)
	defer cl.Close()
	p := cost.Default()
	ms := kernel.PlaceMachines(cl, p, c.Machines, c.CPUs)
	inj := faults.NewInjector(c.Plan)

	nics := make([]*netpipe.NIC, c.Machines)
	ings := make([]*kernel.Inbox, c.Machines)
	lss := make([]*faults.LinkState, c.Machines)
	for i, m := range ms {
		nics[i] = netpipe.NewNIC(m)
		ings[i] = &kernel.Inbox{}
		lss[i] = &faults.LinkState{}
		nics[i].SetFaults(lss[i])
		//dipcvet:shard-ok wiring phase: the injector binds to the shard that owns the link state, before the run
		inj.Link(fmt.Sprintf("link%d", i), cl.Shard(i%cl.Shards()).Engine(), lss[i])
	}

	accs := make([]*stats.Accumulator, c.Machines)
	for i := range accs {
		accs[i] = &stats.Accumulator{}
	}
	waiters := make([]sim.Waiter, c.Clients)
	curID := make([]uint64, c.Clients)
	measuring := false

	// The ring links, in machine order (determinism rule 3). Each link's
	// lookahead is the NIC's declared minimum delivery delay; every send
	// pays the full FlightTime of the request size, which can never be
	// below it.
	outs := make([]*sim.Link, c.Machines)
	for i := 0; i < c.Machines; i++ {
		next := (i + 1) % c.Machines
		l := cl.Connect(cl.Shard(i%cl.Shards()), cl.Shard(next%cl.Shards()), nics[i].Lookahead())
		if next == 0 {
			// Full circle: deliver only if this is still the client's
			// current request; a completion that lost its race with the
			// deadline is stale and must be dropped on the floor.
			l.SetHandler(func(v uint64) {
				ci := int(v & 0xffff)
				if curID[ci] == v {
					waiters[ci].WakeU64(0, v)
				}
			})
		} else {
			ing := ings[next]
			l.SetHandler(func(v uint64) { ing.Submit(v) })
		}
		outs[i] = l
	}

	// Service workers: a dead tier consumes and discards its inbox (the
	// NIC still delivers; nobody is home), and a downed transmit link
	// black-holes the forward.
	for mi := 1; mi < c.Machines; mi++ {
		mi := mi
		proc := ms[mi].NewProcess(fmt.Sprintf("svc%d", mi))
		inj.Proc(proc.Name, ms[mi], proc)
		for w := 0; w < c.Workers; w++ {
			ms[mi].Spawn(proc, fmt.Sprintf("m%d.w%d", mi, w), nil, func(t *kernel.Thread) {
				for {
					id := ings[mi].Recv(t)
					if proc.Dead {
						if measuring {
							accs[mi].Rel.Drops++
						}
						continue
					}
					t.ExecUser(c.Work)
					if !nics[mi].Up() {
						//dipcvet:hook-ok lss[mi] is constructed non-nil at wiring time
						lss[mi].NoteDrop()
						if measuring {
							accs[mi].Rel.Drops++
						}
						continue
					}
					outs[mi].SendU64(nics[mi].FlightTime(c.ReqBytes), id)
				}
			})
		}
	}

	// Closed-loop clients on machine 0's shard, one explicit Rand stream
	// each (determinism rule 2 — never the shard engine's), with a
	// per-attempt deadline: PrepareTimedWait arms a Waiter with a timeout
	// wake, the ring may add a completion wake — whichever fires first
	// wins, the loser is a stale wake the engine discards.
	//dipcvet:shard-ok wiring phase: clients spawn onto shard 0's engine before the run
	eng0 := cl.Shard(0).Engine()
	for ci := 0; ci < c.Clients; ci++ {
		ci := ci
		rng := sim.NewRand(c.Seed + 0x9e3779b97f4a7c15*uint64(ci+1))
		eng0.Spawn(fmt.Sprintf("client%d", ci), sim.Time(ci), func(sp *sim.Proc) {
			seq := uint64(0)
			for {
				start := sp.Now()
				ok := false
				for attempt := 0; attempt <= c.Retry.MaxRetries; attempt++ {
					if attempt > 0 {
						if measuring {
							accs[0].Rel.Retries++
						}
						sp.Sleep(c.Retry.BackoffFor(attempt - 1))
					}
					if measuring {
						accs[0].Rel.Attempts++
					}
					seq++
					id := seq<<16 | uint64(ci)
					if c.Retry.Deadline > 0 {
						waiters[ci] = sp.PrepareTimedWait(c.Retry.Deadline)
					} else {
						waiters[ci] = sp.PrepareWait()
					}
					curID[ci] = id
					if nics[0].Up() {
						outs[0].SendU64(nics[0].FlightTime(c.ReqBytes), id)
					} else if measuring {
						// Lost before the first hop; the deadline still runs.
						//dipcvet:hook-ok lss[0] is constructed non-nil at wiring time
						lss[0].NoteDrop()
						accs[0].Rel.Drops++
					}
					if _, completed := sp.WaitU64(); completed {
						ok = true
						break
					}
					if measuring {
						accs[0].Rel.Timeouts++
					}
				}
				if measuring {
					if ok {
						accs[0].Rel.OpsOK++
						accs[0].AddOp(sp.Now() - start)
					} else {
						accs[0].Rel.OpsFailed++
					}
				}
				sp.Sleep(rng.Duration(0, 2*sim.Microsecond))
			}
		})
	}

	if err := inj.Install(); err != nil {
		panic(fmt.Sprintf("experiments: rack chaos plan: %v", err))
	}

	cl.RunUntil(c.Warmup)
	base := make([]stats.Breakdown, c.Machines)
	for i, m := range ms {
		base[i] = m.Snapshot()
	}
	measuring = true
	cl.RunUntil(c.Warmup + c.Window)

	for i, m := range ms {
		accs[i].Breakdown = m.Snapshot().Sub(base[i])
	}
	merged := stats.MergeAll(accs)
	res := &RackChaosResult{
		Rel:          merged.Rel,
		Goodput:      merged.Rel.Goodput(c.Window),
		ErrorRate:    merged.Rel.ErrorRate(),
		Availability: merged.Rel.Availability(),
		RetryAmp:     merged.Rel.RetryAmplification(),
		AvgLatency:   merged.AvgLatency(),
		PerMachine:   accs,
		Merged:       merged,
		LinkDowntime: make([]sim.Time, c.Machines),
	}
	for i := range lss {
		//dipcvet:shard-ok post-run readout: the cluster has stopped, clocks are frozen
		res.LinkDowntime[i] = lss[i].Downtime(cl.Shard(i % cl.Shards()).Engine().Now())
	}
	return res
}
