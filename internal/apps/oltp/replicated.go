// Rack-scale replication: N replicas of the OLTP tier chain, each on
// its own machine behind NIC wires, a deterministic sim-time health
// detector probing them, and policy-driven replica routing (failover,
// round-robin, hedged) at the clients. It runs on the rack harness
// (rack.go) it shares with the ring: the harness owns the cluster, the
// wires, the closed-loop clients and the measurement; this file adds
// the replicas, the probes and detector, the hedge timer's policy and
// the breakers. Intra-machine hops use the per-mode transports (Linux
// sockets vs dIPC proxies) and inter-machine hops pay the modeled NIC
// cost.
//
// Determinism of the boot phase deserves a note: each replica's chain
// comes from the same builder as the single-machine runners (buildChain
// in chain.go), but those interleave eng.Run() between dIPC init spawns
// to order Publish before Import, and a rack run would advance every
// machine of the rack, not just the one booting. Replicas instead take
// the builder's SlotBoot strategy: every dIPC init thread sleeps to
// a fixed slot on the sim clock — tier i publishes at slot (Depth-i),
// the front imports after all tiers — so wiring is pure intra-machine
// simulation, provably finished before the first request (clients start at a fixed later time).
package oltp

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
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
	// Shards is ignored: every rack runs on one engine. It stays
	// because perfbench's replicas workload still sets it.
	Shards int

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

// ReplicatedResult is the measurement of one replicated rack run. Its
// LinkDowntime lists each replica's request link, then its response
// link, in replica order.
type ReplicatedResult struct {
	RackResult // Rel also carries the detector scores

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
// plan (not from live process state) keeps scoring a pure function of
// the plan.
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
// clients route operations over the NIC wires to the replicas, the
// detector probes replica health on the same wires, and the configured
// policy decides where each attempt (and each hedge) goes.
func RunReplicated(cfg ReplicatedConfig) *ReplicatedResult {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("oltp: replicated: %v", err))
	}
	cfg.applyDefaults()
	h, health, repBreakers := startReplicated(&cfg)
	defer h.cl.Close()
	bds := measure(h.eng, h.ms, h.win, nil)

	// Detector scoring over the whole run (warmup suspicion churn is
	// part of the detector's record), folded into machine 0's share so
	// it merges like every other counter.
	scoreDetector(&h.accs[0].Rel, health.Transitions(), planDeadIntervals(cfg.Plan, cfg.Replicas))
	res := &ReplicatedResult{
		RackResult: h.readout(bds),
		Health:     health.Transitions(),
		Breakers:   make([][]BreakerTransition, cfg.Replicas),
	}
	for r, brs := range repBreakers {
		for _, br := range brs {
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

// startReplicated builds the rack of a validated, defaulted cfg — the
// replicas, their wires, the detector and the clients — without running
// it. It returns the rack (the caller closes h.cl), the detector's
// health state and each replica's breakers in hop order.
func startReplicated(cfg *ReplicatedConfig) (*rack, *ReplicaHealth, [][]*Breaker) {
	R := cfg.Replicas
	h := newRack(cfg.Seed, R+1, cfg.CPUs, cfg.Clients, cfg.Plan, stats.Window{Start: cfg.Warmup, End: cfg.Warmup + cfg.Window})
	prm := DefaultParams()

	// Per-replica plumbing, indexed by 0-based replica r (machine r+1):
	// the tier chain, a request wire m0 -> r for requests and probes,
	// and a response wire r -> m0.
	txs := make([]*wire, R)
	repBreakers := make([][]*Breaker, R)
	lastAck := make([]sim.Time, R)
	for r := range lastAck {
		lastAck[r] = replicatedBootTime // probe grace until the first ack
	}
	health := NewReplicaHealth(R)

	for r := 0; r < R; r++ {
		r := r
		mi := r + 1
		prefix := fmt.Sprintf("r%d", mi)
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
			Prefix: prefix, SlotBoot: true}, h.ms[mi], prm, h.inj, wrap)

		tx := h.connect(fmt.Sprintf("link%d", mi), 0, mi)
		rx := h.connect(fmt.Sprintf("rlink%d", mi), mi, 0)
		txs[r] = tx

		// Request wire: probes echo straight back from the delivery
		// handler (the kernel's ping responder — no tier work), requests
		// queue for the front workers. A dead front answers neither;
		// that silence is what the detector converts into suspicion.
		in := &kernel.Inbox{}
		tx.link.SetHandler(func(v uint64) {
			if v&ridProbeBit == 0 {
				in.Submit(v)
			} else if !front.Dead {
				rx.send(probeBytes, v, nil)
			}
		})

		// Response wire: probe acks refresh the detector's freshness
		// clock; completions go to their client.
		rx.link.SetHandler(func(v uint64) {
			if v&ridProbeBit != 0 {
				lastAck[r] = h.eng.Now()
				return
			}
			h.complete(v)
		})

		// Front worker pool: run the tier chain and report the outcome
		// in-band (error class in the response ID).
		h.serve(mi, front, rt, prefix, cfg.Threads, in, rx, cfg.ReqBytes,
			func(t *kernel.Thread, v uint64) uint64 {
				t.ExecUser(work)
				out, err := trs[0].TryCall(t, "hop", nil, cfg.ReqBytes)
				if err == nil {
					_, err = unwrapRemote(out)
				}
				return v | respClass(err)<<ridErrShift
			})
	}

	// Health detector: probe every replica each period over the request
	// wires, suspect any whose newest ack has gone stale, clear it when
	// acks resume. Pure sim-clock arithmetic on machine 0, in a timer
	// callback: the detector runs on no simulated CPU.
	det := cfg.Detector
	pseq := uint64(0)
	var probe func()
	probe = func() {
		now := h.eng.Now()
		for r := 0; r < R; r++ {
			if now-lastAck[r] > det.Timeout {
				health.Suspect(r, now)
			} else {
				health.Clear(r, now)
			}
			pseq++
			txs[r].send(probeBytes, uint64(ridProbeBit)|pseq<<ridSeqShift|uint64(r), nil)
		}
		h.eng.At(det.Every, probe)
	}
	h.eng.At(replicatedBootTime, probe)

	h.startClients(replicatedBootTime+1, ReplicaSet{N: R, Policy: cfg.Policy, Health: health}, txs,
		cfg.ReqBytes, cfg.Retry, cfg.Plan, sim.Time(float64(cfg.Retry.Deadline)*cfg.HedgeFraction))
	return h, health, repBreakers
}
