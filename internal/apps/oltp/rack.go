package oltp

import (
	"fmt"

	"repro/internal/apps/netpipe"
	"repro/internal/core"
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
// resolve to the same operation, and a hedge loser or a reply that
// missed its deadline is discarded as a stale completion.
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

// rack is the multi-machine harness both rack runners (RunRing,
// RunReplicated) build on: machines on one cluster engine, the fault
// injector, one accumulator per machine behind the measuring gate, the
// NIC wires between machines, and the closed-loop clients on machine 0.
//
// Each machine (with the clients on machine 0) is one part: parts
// interact only through wires, the clients draw think time from their
// own Rand streams seeded by client index, and wires are created in a
// fixed order, which fixes their link IDs.
type rack struct {
	cl        *sim.Cluster
	eng       *sim.Engine
	ms        []*kernel.Machine
	inj       *faults.Injector
	accs      []*stats.Accumulator
	wires     []*wire
	seed      uint64
	measuring bool

	// Closed-loop client state, indexed by client.
	rs      ReplicaSet
	waiters []sim.Waiter
	curID   []uint64
	hedged  []bool
}

// newRack builds machines machines of cpus cores each on one engine and
// sizes the client state for clients clients. The caller closes h.cl.
func newRack(seed uint64, machines, cpus, clients int, plan *faults.Plan) *rack {
	cl := sim.NewCluster(seed, 1)
	h := &rack{
		cl:      cl,
		eng:     cl.Shard(0).Engine(),
		ms:      make([]*kernel.Machine, machines),
		inj:     faults.NewInjector(plan),
		accs:    make([]*stats.Accumulator, machines),
		seed:    seed,
		waiters: make([]sim.Waiter, clients),
		curID:   make([]uint64, clients),
		hedged:  make([]bool, clients),
	}
	for i := range h.ms {
		h.ms[i] = kernel.NewMachine(h.eng, cost.Default(), cpus)
		h.accs[i] = &stats.Accumulator{}
	}
	return h
}

// wire is one directed NIC link between two machines: the sending
// machine's NIC, the NIC's failure state (the injector target), and the
// cluster link. The link's lookahead is the NIC's declared minimum
// delivery delay; every send pays the full FlightTime of its size,
// which can never be below it.
type wire struct {
	h    *rack
	nic  *netpipe.NIC
	ls   faults.LinkState
	link *sim.Link
}

// connect wires machine from to machine to and registers the link's
// failure state with the injector under name. Wires are connected in
// call order, which fixes their link IDs (determinism rule 3).
func (h *rack) connect(name string, from, to int) *wire {
	w := &wire{h: h, nic: netpipe.NewNIC(h.ms[from])}
	w.nic.SetFaults(&w.ls)
	h.inj.Link(name, h.eng, &w.ls)
	sh := h.cl.Shard(0)
	w.link = h.cl.Connect(sh, sh, w.nic.Lookahead())
	h.wires = append(h.wires, w)
	return w
}

// send transmits the size-byte message v, or black-holes it while the
// link is down, counting the drop on acc (nil: uncounted) when the
// window is measuring. A dropped request is lost like a packet: its
// client learns of it only through its deadline.
func (w *wire) send(size int, v uint64, acc *stats.Accumulator) {
	if w.nic.Up() {
		w.link.SendU64(w.nic.FlightTime(size), v)
		return
	}
	if acc != nil && w.h.measuring {
		acc.Rel.Drops++
	}
}

// serve spawns n workers of proc on machine mi, named prefix.w0..,
// draining in. Under dIPC (rt non-nil) each first enters process code.
// A dead proc consumes and discards its deliveries (the NIC still
// delivers; nobody is home); a live one runs handle on each request
// word and sends the reply word it returns on out.
func (h *rack) serve(mi int, proc *kernel.Process, rt *core.Runtime, prefix string, n int,
	in *kernel.Inbox, out *wire, size int, handle func(t *kernel.Thread, v uint64) uint64,
) {
	acc := h.accs[mi]
	for w := 0; w < n; w++ {
		h.ms[mi].Spawn(proc, fmt.Sprintf("%s.w%d", prefix, w), nil, func(t *kernel.Thread) {
			if rt != nil {
				mustEnter(rt, t)
			}
			for {
				v := in.Recv(t)
				if proc.Dead {
					if h.measuring {
						acc.Rel.Drops++
					}
					continue
				}
				out.send(size, handle(t, v), acc)
			}
		})
	}
}

// complete delivers a response word to its client. It must match the
// client's current ID (copy and error bits masked) or it is stale — a
// loser of a hedge race or a reply that missed its deadline — and is
// dropped with cancellation accounting.
func (h *rack) complete(v uint64) {
	ci := int(v & ridClientMask)
	if h.curID[ci] != v&^uint64(ridCopyBit|ridErrMask) {
		if h.measuring {
			h.accs[0].Rel.Cancelled++
		}
		return
	}
	if h.hedged[ci] {
		if h.measuring {
			if v&ridCopyBit != 0 {
				h.accs[0].Rel.HedgeWins++
			} else {
				h.accs[0].Rel.HedgeLosses++
			}
		}
		h.hedged[ci] = false
	}
	h.curID[ci] = 0
	h.waiters[ci].WakeU64(0, v)
}

// spawnClients starts the closed-loop clients on machine 0,
// client ci at start+ci, each with one explicit Rand stream for its
// think time (determinism rule 2 — never the engine's). Every
// operation gets up to 1+retry.MaxRetries attempts; rs picks each
// attempt's replica and routes[i] carries requests to replica i. An
// attempt waits with a deadline wake when retry.Deadline > 0 (whichever
// of deadline and completion fires first wins; the loser is a stale
// wake the engine discards) and untimed otherwise, so a fault-free run
// arms no timer that would only go stale. Under PolicyHedged a timer at
// hedgeAfter issues a copy-bit duplicate to the next healthy replica if
// the primary has not answered yet; first response wins.
func (h *rack) spawnClients(start sim.Time, rs ReplicaSet, routes []*wire, reqBytes int,
	retry faults.RetryPolicy, plan *faults.Plan, hedgeAfter sim.Time,
) {
	h.rs = rs
	for ci := range h.curID {
		ci := ci
		rng := sim.NewRand(h.seed + 0x9e3779b97f4a7c15*uint64(ci+1))
		name := fmt.Sprintf("client%d", ci)
		jitter := retryJitter(retry, plan, name)
		h.eng.Spawn(name, start+sim.Time(ci), func(sp *sim.Proc) {
			acc := h.accs[0]
			seq := uint64(0)
			for {
				begin := sp.Now()
				ok := false
				base := h.rs.Begin()
				for attempt := 0; attempt <= retry.MaxRetries; attempt++ {
					if attempt > 0 {
						if h.measuring {
							acc.Rel.Retries++
						}
						sp.Sleep(retry.BackoffJittered(attempt-1, jitter))
					}
					if h.measuring {
						acc.Rel.Attempts++
					}
					seq++
					id := seq<<ridSeqShift | uint64(ci)
					target := h.rs.Pick(base, attempt)
					if retry.Deadline > 0 {
						h.waiters[ci] = sp.PrepareTimedWait(retry.Deadline)
					} else {
						h.waiters[ci] = sp.PrepareWait()
					}
					h.curID[ci] = id
					h.hedged[ci] = false
					routes[target].send(reqBytes, id, acc)
					if h.rs.Policy == PolicyHedged && h.rs.N > 1 {
						h.eng.At(hedgeAfter, func() {
							if h.curID[ci] != id {
								return // already answered or superseded
							}
							alt := h.rs.Next(target)
							if alt == target {
								return
							}
							if h.measuring {
								// Win/loss attribution rides the same gate,
								// so a warmup hedge can never win inside the
								// window and push HedgeWins past Hedges.
								acc.Rel.Hedges++
								h.hedged[ci] = true
							}
							routes[alt].send(reqBytes, id|ridCopyBit, acc)
						})
					}
					v, completed := sp.WaitU64()
					if !completed {
						if h.measuring {
							acc.Rel.Timeouts++
						}
						h.curID[ci] = 0 // cancel: a late reply is stale now
						continue
					}
					switch int(v>>ridErrShift) & 3 {
					case respOK:
						ok = true
					case respRejected:
						// The replica shed the call; routing retries it
						// elsewhere. With a single replica there is no
						// elsewhere — honor the rejection like the
						// Retrier does and stop.
						if h.measuring {
							acc.Rel.Rejected++
						}
						if h.rs.N == 1 {
							attempt = retry.MaxRetries
						}
					default:
						if h.measuring {
							acc.Rel.Faults++
						}
					}
					if ok {
						break
					}
				}
				if h.measuring {
					if ok {
						acc.Rel.OpsOK++
						acc.AddOp(sp.Now() - begin)
					} else {
						acc.Rel.OpsFailed++
					}
				}
				sp.Sleep(rng.Duration(0, 2*sim.Microsecond))
			}
		})
	}
}

// measure installs the fault plan, runs the warmup, opens the
// measuring gate (failover accounting starts with it), runs the window,
// and leaves each machine's window breakdown in its accumulator.
func (h *rack) measure(warmup, window sim.Time) {
	if err := h.inj.Install(); err != nil {
		panic(fmt.Sprintf("oltp: rack plan: %v", err))
	}
	h.cl.RunUntil(warmup)
	base := make([]stats.Breakdown, len(h.ms))
	for i, m := range h.ms {
		base[i] = m.Snapshot()
	}
	h.measuring = true
	h.rs.Rel = &h.accs[0].Rel
	h.cl.RunUntil(warmup + window)
	for i, m := range h.ms {
		h.accs[i].Breakdown = m.Snapshot().Sub(base[i])
	}
}

// RackResult is the window measurement of one rack run.
type RackResult struct {
	Rel          stats.Reliability // merged window counters
	Goodput      float64           // successful ops per second
	ErrorRate    float64
	Availability float64
	RetryAmp     float64
	AvgLatency   sim.Time // mean latency of successful in-window ops
	P50          sim.Time
	P99          sim.Time
	P999         sim.Time
	PerMachine   []*stats.Accumulator
	Merged       stats.Accumulator
	// LinkDowntime is each wire's total down time, in wiring order.
	LinkDowntime []sim.Time
}

// readout merges the per-machine accumulators after measure.
func (h *rack) readout(window sim.Time) RackResult {
	merged := stats.MergeAll(h.accs)
	res := RackResult{
		Rel:          merged.Rel,
		Goodput:      merged.Rel.Goodput(window),
		ErrorRate:    merged.Rel.ErrorRate(),
		Availability: merged.Rel.Availability(),
		RetryAmp:     merged.Rel.RetryAmplification(),
		AvgLatency:   merged.AvgLatency(),
		P50:          merged.Hist.P50(),
		P99:          merged.Hist.P99(),
		P999:         merged.Hist.P999(),
		PerMachine:   h.accs,
		Merged:       merged,
		LinkDowntime: make([]sim.Time, len(h.wires)),
	}
	for i, w := range h.wires {
		// Post-run readout: the engine has stopped, its clock is frozen.
		res.LinkDowntime[i] = w.ls.Downtime(h.eng.Now())
	}
	return res
}
