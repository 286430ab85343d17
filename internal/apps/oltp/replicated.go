// Rack-scale replication: N replicas of the OLTP tier chain, each on
// its own machine behind NIC links, a deterministic sim-time health
// detector probing them, and policy-driven replica routing (failover,
// round-robin, hedged) at the clients. This is ROADMAP item 4's rack
// extension joined with the robustness stack: intra-machine hops use
// the per-mode transports (Linux sockets vs dIPC proxies), inter-
// machine hops pay the modeled NIC cost, and every failure-path
// counter merges shard-deterministically so a replicated chaos run is
// byte-identical at any shard count.
//
// Determinism of the boot phase deserves a note: each replica's chain
// comes from the same builder as the single-machine runners (buildChain
// in chain.go), but those interleave eng.Run() between dIPC init spawns
// to order Publish before Import, which a multi-shard cluster cannot do
// (the cluster clock advances all shards together). Replicas instead
// take the builder's SlotBoot strategy: every dIPC init thread sleeps to
// a fixed slot on the sim clock — tier i publishes at slot (Depth-i),
// the front imports after all tiers — so wiring is pure intra-machine
// simulation, identical at every shard count, and provably finished
// before the first request (clients start at a fixed later time).
package oltp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/apps/netpipe"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Request-ID bit layout on the wire (uint64):
//
//	bits 0..11   client index (requests) or replica index (probes)
//	bit  12      hedge copy (set on the duplicate request)
//	bits 13..14  response error class (respOK/respFault/respRejected)
//	bit  15      health probe
//	bits 16..63  sequence number
//
// A client matches completions against its current ID with the copy
// and error-class bits masked, so a hedged duplicate and its primary
// resolve to the same operation and the loser is discarded as a stale
// completion — the same filtering RunRackChaos applies to retry races.
const (
	ridClientBits = 12
	ridClientMask = (1 << ridClientBits) - 1
	ridCopyBit    = 1 << 12
	ridErrShift   = 13
	ridErrMask    = 3 << ridErrShift
	ridProbeBit   = 1 << 15
	ridSeqShift   = 16
)

// Response error classes carried in-band (bits 13..14).
const (
	respOK       = 0
	respFault    = 1
	respRejected = 2
)

// Boot schedule: dIPC tier inits slot in at multiples of
// replicaBootSlot; clients, probes and the detector start at
// replicatedBootTime, after every replica is provably wired.
const (
	replicaBootSlot    = sim.Time(50 * sim.Microsecond)
	replicatedBootTime = sim.Time(1 * sim.Millisecond)
)

// ReplicatedConfig is one replicated rack run: machine 0 hosts the
// clients, the router state and the health detector; machines 1..N
// each host one replica of the tier chain.
type ReplicatedConfig struct {
	Mode     Mode
	Replicas int      // replica count N (default 2)
	Depth    int      // tier chain depth inside each replica (default 1)
	Threads  int      // front worker threads per replica (default 4)
	CPUs     int      // cores per machine (default 2)
	Clients  int      // closed-loop clients on machine 0 (default 8)
	Work     sim.Time // per-tier service time (default 20us)
	ReqBytes int      // request/response size on the wire (default 256)
	Warmup   sim.Time // must exceed the boot time (default 5ms)
	Window   sim.Time // measurement window (default 20ms)
	Seed     uint64
	Shards   int // engine shards (<= 0: one per host core)

	// Plan is the fault schedule. Targets: replica fronts "r1".."rN",
	// tier processes "r<i>.svc<j>" (none under Ideal, whose tiers share
	// the front's process), request links "link1".."linkN" (machine 0's
	// transmit NIC toward replica i) and response links
	// "rlink1".."rlinkN". Nil: fault-free.
	Plan *faults.Plan
	// Retry is the clients' per-operation policy (defaults: Deadline
	// 500us, Backoff 20us).
	Retry faults.RetryPolicy
	// Policy picks the routing strategy (default PolicyFailover).
	Policy RoutePolicy
	// HedgeFraction is the fraction of the attempt deadline after which
	// PolicyHedged issues its duplicate (default 0.5).
	HedgeFraction float64
	// Detector parameterizes health probing (zero fields take the
	// DetectorConfig defaults).
	Detector DetectorConfig
	// Breaker, when non-nil, wraps every intra-replica hop transport in
	// a circuit breaker with this configuration.
	Breaker *BreakerConfig

	// SlowReplica (1-based), when nonzero, multiplies that replica's
	// per-tier work by SlowFactor — the straggler hedging exists to
	// tolerate.
	SlowReplica int
	SlowFactor  float64
}

func (cfg *ReplicatedConfig) applyDefaults() {
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Depth == 0 {
		cfg.Depth = 1
	}
	if cfg.Threads == 0 {
		cfg.Threads = 4
	}
	if cfg.CPUs == 0 {
		cfg.CPUs = 2
	}
	if cfg.Clients == 0 {
		cfg.Clients = 8
	}
	if cfg.Work == 0 {
		cfg.Work = sim.Micros(20)
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 256
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Millis(5)
	}
	if cfg.Window == 0 {
		cfg.Window = sim.Millis(20)
	}
	if cfg.Retry.Deadline == 0 {
		cfg.Retry.Deadline = sim.Micros(500)
	}
	if cfg.Retry.Backoff == 0 {
		cfg.Retry.Backoff = sim.Micros(20)
	}
	if cfg.HedgeFraction <= 0 {
		cfg.HedgeFraction = 0.5
	}
	if cfg.SlowFactor <= 0 {
		cfg.SlowFactor = 1
	}
	cfg.Detector = cfg.Detector.withDefaults()
}

// Validate reports the first setting RunReplicated cannot run once
// defaults are applied, naming the field at fault.
func (cfg ReplicatedConfig) Validate() error {
	cfg.applyDefaults()
	// Every replica is wired once Depth+2 boot slots have passed, which
	// must fall before replicatedBootTime.
	maxDepth := int((replicatedBootTime-1)/replicaBootSlot) - 2
	switch {
	case cfg.Replicas < 1:
		return fmt.Errorf("replicas must be >= 1, got %d", cfg.Replicas)
	case cfg.Clients > ridClientMask:
		return fmt.Errorf("clients must be <= %d (request-ID encoding), got %d", ridClientMask, cfg.Clients)
	case cfg.Depth > maxDepth:
		return fmt.Errorf("depth must be <= %d to boot within %v, got %d", maxDepth, replicatedBootTime, cfg.Depth)
	case cfg.Warmup <= replicatedBootTime:
		return fmt.Errorf("warmup must exceed the %v boot time, got %v", replicatedBootTime, cfg.Warmup)
	case cfg.HedgeFraction >= 1:
		return fmt.Errorf("hedge fraction must be < 1 (a hedge at the deadline never fires), got %g", cfg.HedgeFraction)
	}
	return nil
}

// ReplicatedResult is the measurement of one replicated rack run.
type ReplicatedResult struct {
	Rel          stats.Reliability // merged window counters + detector scores
	Goodput      float64
	ErrorRate    float64
	Availability float64
	RetryAmp     float64
	AvgLatency   sim.Time
	P50          sim.Time
	P99          sim.Time
	P999         sim.Time
	MaxLatency   sim.Time

	PerMachine []*stats.Accumulator
	Merged     stats.Accumulator

	TxDowntime []sim.Time // per replica, request-link total down time
	RxDowntime []sim.Time // per replica, response-link total down time

	// Health is the detector's suspicion-flip log over the whole run.
	Health []HealthTransition
	// Breakers holds each replica's breaker transition timeline (hop
	// timelines concatenated in hop order); empty without cfg.Breaker.
	Breakers  [][]BreakerTransition
	Trips     int64
	FastFails int64
}

// planDeadIntervals derives, from the static fault plan, the windows
// during which each replica front is administratively dead — the ground
// truth detector scoring compares suspicions against. KillProc "r<i>"
// opens an interval, RestartProc "r<i>" closes it. Derivation from the
// plan (not from live process state) keeps scoring free of cross-shard
// reads.
func planDeadIntervals(plan *faults.Plan, replicas int) []deadInterval {
	if plan == nil {
		return nil
	}
	evs := make([]faults.Event, len(plan.Events))
	copy(evs, plan.Events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	var out []deadInterval
	for r := 1; r <= replicas; r++ {
		front := fmt.Sprintf("r%d", r)
		open := -1
		for _, ev := range evs {
			switch {
			case ev.Kind == faults.KillProc && ev.Target == front:
				if open < 0 {
					out = append(out, deadInterval{Replica: r - 1, From: ev.At})
					open = len(out) - 1
				}
			case ev.Kind == faults.RestartProc && ev.Target == front:
				if open >= 0 {
					out[open].Until = ev.At
					open = -1
				}
			}
		}
	}
	return out
}

// RunReplicated builds the replicated rack and runs it: machine 0's
// clients route operations over the NIC links to the replicas, the
// detector probes replica health on the same links, and the configured
// policy decides where each attempt (and each hedge) goes.
func RunReplicated(cfg ReplicatedConfig) *ReplicatedResult {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("oltp: replicated: %v", err))
	}
	cfg.applyDefaults()
	R := cfg.Replicas

	cl := sim.NewCluster(cfg.Seed, cfg.Shards)
	defer cl.Close()
	machines := R + 1
	ms := kernel.PlaceMachines(cl, cost.Default(), machines, cfg.CPUs)
	prm := DefaultParams()
	inj := faults.NewInjector(cfg.Plan)

	// Per-replica plumbing, all indexed by 0-based replica r (machine
	// r+1): a transmit NIC+link m0 -> r for requests and probes, a
	// response NIC+link r -> m0, an inbox, and the tier chain.
	txnics := make([]*netpipe.NIC, R)
	rxnics := make([]*netpipe.NIC, R)
	txls := make([]*faults.LinkState, R)
	rxls := make([]*faults.LinkState, R)
	outs := make([]*sim.Link, R)
	routs := make([]*sim.Link, R)
	inboxes := make([]*kernel.Inbox, R)
	fronts := make([]*kernel.Process, R)
	repBreakers := make([][]*Breaker, R)

	accs := make([]*stats.Accumulator, machines)
	for i := range accs {
		accs[i] = &stats.Accumulator{}
	}

	waiters := make([]sim.Waiter, cfg.Clients)
	curID := make([]uint64, cfg.Clients)
	hedged := make([]bool, cfg.Clients)
	lastAck := make([]sim.Time, R)
	for r := range lastAck {
		lastAck[r] = replicatedBootTime // probe grace until the first ack
	}
	measuring := false

	health := NewReplicaHealth(R)
	rs := &ReplicaSet{N: R, Policy: cfg.Policy, Health: health}

	//dipcvet:shard-ok wiring phase: links and injector targets bind to their owning shards before the run
	eng0 := cl.Shard(0).Engine()
	shardOf := func(mi int) *sim.Engine {
		//dipcvet:shard-ok wiring phase: resolving the owning engine of machine mi before the run
		return cl.Shard(mi % cl.Shards()).Engine()
	}

	for r := 0; r < R; r++ {
		r := r
		mi := r + 1
		txnics[r] = netpipe.NewNIC(ms[0])
		rxnics[r] = netpipe.NewNIC(ms[mi])
		txls[r] = &faults.LinkState{}
		rxls[r] = &faults.LinkState{}
		txnics[r].SetFaults(txls[r])
		rxnics[r].SetFaults(rxls[r])
		inj.Link(fmt.Sprintf("link%d", mi), eng0, txls[r])
		inj.Link(fmt.Sprintf("rlink%d", mi), shardOf(mi), rxls[r])
		inboxes[r] = &kernel.Inbox{}

		work := cfg.Work
		if cfg.SlowReplica == mi {
			work = sim.Time(float64(work) * cfg.SlowFactor)
		}
		wrap := func(tr Transport, hop int) Transport {
			if cfg.Breaker != nil {
				if repBreakers[r] == nil {
					repBreakers[r] = make([]*Breaker, cfg.Depth)
				}
				br := NewBreaker(tr, *cfg.Breaker)
				repBreakers[r][hop-1] = br
				tr = br
			}
			return tr
		}
		front, rt, trs := buildChain(&tierChain{Mode: cfg.Mode, Depth: cfg.Depth, Threads: cfg.Threads,
			ReqBytes: cfg.ReqBytes, Work: work, Plan: cfg.Plan, Deadline: cfg.Retry.Deadline,
			Prefix: fmt.Sprintf("r%d", mi), SlotBoot: true}, ms[mi], prm, inj, wrap)
		fronts[r] = front

		// Request link m0 -> replica: probes echo straight back from the
		// delivery handler (the kernel's ping responder — no tier work),
		// requests queue for the front workers. A dead front answers
		// neither; that silence is what the detector converts into
		// suspicion.
		outs[r] = cl.Connect(cl.Shard(0), cl.Shard(mi%cl.Shards()), txnics[r].Lookahead())
		routs[r] = cl.Connect(cl.Shard(mi%cl.Shards()), cl.Shard(0), rxnics[r].Lookahead())
		outs[r].SetHandler(func(v uint64) {
			if v&ridProbeBit != 0 {
				if front.Dead {
					return
				}
				if !rxnics[r].Up() {
					//dipcvet:hook-ok rxls[r] is constructed non-nil at wiring time
					rxls[r].NoteDrop()
					return
				}
				routs[r].SendU64(rxnics[r].FlightTime(probeBytes), v)
				return
			}
			inboxes[r].Submit(v)
		})

		// Response link replica -> m0: probe acks refresh the detector's
		// freshness clock; completions must match the client's current
		// ID (copy and error bits masked) or they are stale — a loser of
		// a hedge race or a reply that missed its deadline — and are
		// dropped with cancellation accounting.
		routs[r].SetHandler(func(v uint64) {
			if v&ridProbeBit != 0 {
				lastAck[r] = eng0.Now()
				return
			}
			ci := int(v & ridClientMask)
			if curID[ci] != v&^uint64(ridCopyBit|ridErrMask) {
				if measuring {
					accs[0].Rel.Cancelled++
				}
				return
			}
			if hedged[ci] {
				if measuring {
					if v&ridCopyBit != 0 {
						accs[0].Rel.HedgeWins++
					} else {
						accs[0].Rel.HedgeLosses++
					}
				}
				hedged[ci] = false
			}
			curID[ci] = 0
			waiters[ci].WakeU64(0, v)
		})

		// Front worker pool: drain the inbox, run the tier chain, report
		// the outcome in-band (error class in the response ID). A dead
		// front consumes and discards; a downed response link black-holes
		// the reply — either way the client learns only via its deadline.
		for w := 0; w < cfg.Threads; w++ {
			ms[mi].Spawn(front, fmt.Sprintf("r%d.w%d", mi, w), nil, func(t *kernel.Thread) {
				if rt != nil {
					mustEnter(rt, t)
				}
				for {
					v := inboxes[r].Recv(t)
					if front.Dead {
						if measuring {
							accs[mi].Rel.Drops++
						}
						continue
					}
					t.ExecUser(work)
					out, err := trs[0].TryCall(t, "hop", nil, cfg.ReqBytes)
					if err == nil {
						_, err = unwrapRemote(out)
					}
					class := uint64(respOK)
					if err != nil {
						if errors.Is(err, faults.ErrRejected) {
							class = respRejected
						} else {
							class = respFault
						}
					}
					if !rxnics[r].Up() {
						//dipcvet:hook-ok rxls[r] is constructed non-nil at wiring time
						rxls[r].NoteDrop()
						if measuring {
							accs[mi].Rel.Drops++
						}
						continue
					}
					routs[r].SendU64(rxnics[r].FlightTime(cfg.ReqBytes), v|class<<ridErrShift)
				}
			})
		}
	}

	// send transmits one request (or hedge copy) toward replica r; a
	// downed request link black-holes it and the deadline still runs.
	send := func(r int, id uint64) {
		if txnics[r].Up() {
			outs[r].SendU64(txnics[r].FlightTime(cfg.ReqBytes), id)
			return
		}
		//dipcvet:hook-ok txls[r] is constructed non-nil at wiring time
		txls[r].NoteDrop()
		if measuring {
			accs[0].Rel.Drops++
		}
	}

	// Health detector: probe every replica each period over the request
	// links, suspect any whose newest ack has gone stale, clear it when
	// acks resume. Pure sim-clock arithmetic on shard 0.
	det := cfg.Detector
	eng0.Spawn("health-detector", replicatedBootTime, func(sp *sim.Proc) {
		pseq := uint64(0)
		for {
			now := sp.Now()
			for r := 0; r < R; r++ {
				if now-lastAck[r] > det.Timeout {
					health.Suspect(r, now)
				} else {
					health.Clear(r, now)
				}
				pseq++
				pid := uint64(ridProbeBit) | pseq<<ridSeqShift | uint64(r)
				if txnics[r].Up() {
					outs[r].SendU64(txnics[r].FlightTime(probeBytes), pid)
				} else {
					//dipcvet:hook-ok txls[r] is constructed non-nil at wiring time
					txls[r].NoteDrop()
				}
			}
			sp.Sleep(det.Every)
		}
	})

	// Closed-loop clients: retry loop with deadline-armed waits as in
	// RunRackChaos, plus routing. Each attempt asks the ReplicaSet for a
	// candidate; under PolicyHedged a timer at HedgeFraction*deadline
	// issues a copy-bit duplicate to the next healthy replica if the
	// primary has not answered yet — first response wins.
	hedgeDelay := sim.Time(float64(cfg.Retry.Deadline) * cfg.HedgeFraction)
	for ci := 0; ci < cfg.Clients; ci++ {
		ci := ci
		rng := sim.NewRand(cfg.Seed + 0x9e3779b97f4a7c15*uint64(ci+1))
		jitter := retryJitter(cfg.Retry, cfg.Plan, fmt.Sprintf("client%d", ci))
		eng0.Spawn(fmt.Sprintf("client%d", ci), replicatedBootTime+sim.Time(ci+1), func(sp *sim.Proc) {
			seq := uint64(0)
			for {
				start := sp.Now()
				ok := false
				base := rs.Begin()
				for attempt := 0; attempt <= cfg.Retry.MaxRetries; attempt++ {
					if attempt > 0 {
						if measuring {
							accs[0].Rel.Retries++
						}
						sp.Sleep(cfg.Retry.BackoffJittered(attempt-1, jitter))
					}
					if measuring {
						accs[0].Rel.Attempts++
					}
					seq++
					id := seq<<ridSeqShift | uint64(ci)
					target := rs.Pick(base, attempt)
					waiters[ci] = sp.PrepareTimedWait(cfg.Retry.Deadline)
					curID[ci] = id
					hedged[ci] = false
					send(target, id)
					if cfg.Policy == PolicyHedged && R > 1 {
						eng0.At(hedgeDelay, func() {
							if curID[ci] != id {
								return // already answered or superseded
							}
							alt := rs.Next(target)
							if alt == target {
								return
							}
							if measuring {
								// Win/loss attribution rides the same gate,
								// so a warmup hedge can never win inside the
								// window and push HedgeWins past Hedges.
								accs[0].Rel.Hedges++
								hedged[ci] = true
							}
							send(alt, id|ridCopyBit)
						})
					}
					v, completed := sp.WaitU64()
					if completed {
						switch int(v>>ridErrShift) & 3 {
						case respOK:
							ok = true
						case respRejected:
							// The replica shed the call; routing retries
							// it elsewhere. With a single replica there
							// is no elsewhere — honor the rejection like
							// the Retrier does and stop.
							if measuring {
								accs[0].Rel.Rejected++
							}
							if R == 1 {
								attempt = cfg.Retry.MaxRetries
							}
						default:
							if measuring {
								accs[0].Rel.Faults++
							}
						}
						if ok {
							break
						}
						continue
					}
					if measuring {
						accs[0].Rel.Timeouts++
					}
					curID[ci] = 0 // cancel: a late reply is stale now
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
		panic(fmt.Sprintf("oltp: replicated plan: %v", err))
	}

	cl.RunUntil(cfg.Warmup)
	base := make([]stats.Breakdown, machines)
	for i, m := range ms {
		base[i] = m.Snapshot()
	}
	measuring = true
	rs.Rel = &accs[0].Rel // failover accounting starts with the window
	cl.RunUntil(cfg.Warmup + cfg.Window)

	for i, m := range ms {
		accs[i].Breakdown = m.Snapshot().Sub(base[i])
	}
	// Detector scoring over the whole run (warmup suspicion churn is
	// part of the detector's record), folded into machine 0's share so
	// it merges like every other counter.
	scoreDetector(&accs[0].Rel, health.Transitions(), planDeadIntervals(cfg.Plan, R))
	merged := stats.MergeAll(accs)

	res := &ReplicatedResult{
		Rel:          merged.Rel,
		Goodput:      merged.Rel.Goodput(cfg.Window),
		ErrorRate:    merged.Rel.ErrorRate(),
		Availability: merged.Rel.Availability(),
		RetryAmp:     merged.Rel.RetryAmplification(),
		AvgLatency:   merged.AvgLatency(),
		P50:          merged.Hist.P50(),
		P99:          merged.Hist.P99(),
		P999:         merged.Hist.P999(),
		MaxLatency:   merged.Hist.Max(),
		PerMachine:   accs,
		Merged:       merged,
		TxDowntime:   make([]sim.Time, R),
		RxDowntime:   make([]sim.Time, R),
		Health:       health.Transitions(),
		Breakers:     make([][]BreakerTransition, R),
	}
	for r := 0; r < R; r++ {
		//dipcvet:shard-ok post-run readout: the cluster has stopped, clocks are frozen
		now := cl.Shard((r + 1) % cl.Shards()).Engine().Now()
		res.TxDowntime[r] = txls[r].Downtime(eng0.Now())
		res.RxDowntime[r] = rxls[r].Downtime(now)
		for _, br := range repBreakers[r] {
			if br == nil {
				continue
			}
			res.Breakers[r] = append(res.Breakers[r], br.Transitions()...)
			res.Trips += br.Trips()
			res.FastFails += br.FastFails()
		}
	}
	return res
}
