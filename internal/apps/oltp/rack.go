package oltp

import (
	"fmt"
	"strconv"

	"repro/internal/apps/netpipe"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/load"
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

// Response error classes carried in-band (bits 13..14), and in the
// low bits of a Gateway completion word, which load.Generator reads.
const (
	respOK       = load.ClassOK
	respFault    = load.ClassFailed
	respRejected = load.ClassRejected
)

// rack is the multi-machine harness both rack runners (RunRing,
// RunReplicated) build on: machines on one cluster engine, the fault
// injector, one accumulator per machine, the measured window that gates
// every counter the rack bumps, the NIC wires between machines, and the
// closed-loop clients on machine 0.
//
// Each machine (with the clients on machine 0) is one part: parts
// interact only through wires, the clients draw think time from their
// own Rand streams seeded by client index, and wires are created in a
// fixed order, which fixes their link IDs.
type rack struct {
	cl    *sim.Cluster
	eng   *sim.Engine
	ms    []*kernel.Machine
	inj   *faults.Injector
	accs  []*stats.Accumulator
	wires []*wire
	seed  uint64
	win   stats.Window

	// Closed-loop client state, indexed by client.
	replies []func(uint64) // takes the response word of the current attempt
	curID   []uint64
	hedged  []bool
}

// newRack builds machines machines of cpus cores each on one engine,
// measured over win, and sizes the client state for clients clients.
// The caller closes h.cl.
func newRack(seed uint64, machines, cpus, clients int, plan *faults.Plan, win stats.Window) *rack {
	cl := sim.NewCluster(seed, 1)
	h := &rack{
		cl:      cl,
		eng:     cl.Shard(0).Engine(),
		ms:      make([]*kernel.Machine, machines),
		inj:     faults.NewInjector(plan),
		accs:    make([]*stats.Accumulator, machines),
		seed:    seed,
		win:     win,
		replies: make([]func(uint64), clients),
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
// rack's stats.Window holds the instant. A dropped request is lost
// like a packet: its client learns of it only through its deadline.
func (w *wire) send(size int, v uint64, acc *stats.Accumulator) {
	if w.nic.Up() {
		w.link.SendU64(w.nic.FlightTime(size), v)
		return
	}
	if acc != nil && w.h.win.In(w.h.eng.Now()) {
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
		h.ms[mi].Spawn(proc, prefix+".w"+strconv.Itoa(w), nil, func(t *kernel.Thread) {
			if rt != nil {
				mustEnter(rt, t)
			}
			for {
				v := in.Recv(t)
				if proc.Dead {
					if h.win.In(h.eng.Now()) {
						acc.Rel.Drops++
					}
					continue
				}
				out.send(size, handle(t, v), acc)
			}
		})
	}
}

// complete delivers a response word to its client, as an event of its
// own at this instant rather than inside the link handler. It must
// match the client's current ID (copy and error bits masked) or it is
// stale — a loser of a hedge race or a reply that missed its deadline —
// and is dropped with cancellation accounting.
//
//dipcvet:noalloc
func (h *rack) complete(v uint64) {
	ci := int(v & ridClientMask)
	if h.curID[ci] != v&^uint64(ridCopyBit|ridErrMask) {
		if h.win.In(h.eng.Now()) {
			h.accs[0].Rel.Cancelled++
		}
		return
	}
	if h.hedged[ci] {
		if h.win.In(h.eng.Now()) {
			if v&ridCopyBit != 0 {
				h.accs[0].Rel.HedgeWins++
			} else {
				h.accs[0].Rel.HedgeLosses++
			}
		}
		h.hedged[ci] = false
	}
	h.curID[ci] = 0
	h.eng.AtU64(0, h.replies[ci], v)
}

// startClients starts the closed-loop clients on machine 0, client ci
// at start+ci, each with one explicit Rand stream for its think time
// (determinism rule 2 — never the engine's). A client runs on no
// simulated CPU, so it is a set of engine callbacks built once, not a
// proc. Every operation gets up to 1+retry.MaxRetries attempts; rs
// picks each attempt's replica and routes[i] carries requests to
// replica i. An attempt arms a deadline timer when retry.Deadline > 0
// (whichever of deadline and response comes first wins; the other
// finds the attempt's ID gone and does nothing) and none otherwise, so
// a fault-free run arms no timer that would only lose. Under
// PolicyHedged a timer at hedgeAfter issues a copy-bit duplicate to the
// next healthy replica if the primary has not answered yet; first
// response wins. Last, startClients installs the fault plan, so every
// target must be wired before it is called.
func (h *rack) startClients(start sim.Time, rs ReplicaSet, routes []*wire, reqBytes int,
	retry faults.RetryPolicy, plan *faults.Plan, hedgeAfter sim.Time,
) {
	for ci := range h.curID {
		ci := ci
		rng := sim.NewRand(h.seed + 0x9e3779b97f4a7c15*uint64(ci+1))
		jitter := retryJitter(retry, plan, fmt.Sprintf("client%d", ci))
		acc := h.accs[0]
		// The operation in progress: when it began, its replica order,
		// its attempt number, and the replica the attempt went to.
		// Timers carry the attempt's ID as their word.
		var seq uint64
		var begin sim.Time
		var base, attempt, target int
		var op, try func()
		hedge := func(id uint64) {
			if h.curID[ci] != id {
				return // already answered or superseded
			}
			alt := rs.Next(target)
			if alt == target {
				return
			}
			if h.win.In(h.eng.Now()) {
				// Only a hedge counted here has its win or loss
				// counted, so a warm-up hedge can never win inside
				// the window and push HedgeWins past Hedges.
				acc.Rel.Hedges++
				h.hedged[ci] = true
			}
			routes[alt].send(reqBytes, id|ridCopyBit, acc)
		}
		// end closes the operation and thinks before the next one.
		end := func(ok bool) {
			if h.win.In(h.eng.Now()) {
				if ok {
					acc.Rel.OpsOK++
					acc.AddOp(h.eng.Now() - begin)
				} else {
					acc.Rel.OpsFailed++
				}
			}
			h.eng.At(rng.Duration(0, 2*sim.Microsecond), op)
		}
		// again follows a failed attempt: back off and try again, or
		// fail the operation once its attempts are spent.
		again := func() {
			attempt++
			if attempt > retry.MaxRetries {
				end(false)
				return
			}
			if h.win.In(h.eng.Now()) {
				acc.Rel.Retries++
			}
			h.eng.At(retry.BackoffJittered(attempt-1, jitter), try)
		}
		timeout := func(id uint64) {
			if h.curID[ci] != id {
				return // answered in time
			}
			if h.win.In(h.eng.Now()) {
				acc.Rel.Timeouts++
			}
			h.curID[ci] = 0 // cancel: a late reply is stale now
			again()
		}
		op = func() {
			begin = h.eng.Now()
			base = rs.Begin()
			attempt = 0
			try()
		}
		try = func() {
			seq++
			id := seq<<ridSeqShift | uint64(ci)
			target = rs.Pick(base, attempt)
			if h.win.In(h.eng.Now()) {
				acc.Rel.Attempts++
				if target != base {
					acc.Rel.Failovers++
				}
			}
			if retry.Deadline > 0 {
				h.eng.AtU64(retry.Deadline, timeout, id)
			}
			h.curID[ci] = id
			h.hedged[ci] = false
			routes[target].send(reqBytes, id, acc)
			if rs.Policy == PolicyHedged && rs.N > 1 {
				h.eng.AtU64(hedgeAfter, hedge, id)
			}
		}
		h.replies[ci] = func(v uint64) {
			switch int(v>>ridErrShift) & 3 {
			case respOK:
				end(true)
				return
			case respRejected:
				// The replica shed the call; routing retries it
				// elsewhere. With a single replica there is no
				// elsewhere — honor the rejection like the Retrier
				// does and stop.
				if h.win.In(h.eng.Now()) {
					acc.Rel.Rejected++
				}
				if rs.N == 1 {
					attempt = retry.MaxRetries
				}
			default:
				if h.win.In(h.eng.Now()) {
					acc.Rel.Faults++
				}
			}
			again()
		}
		h.eng.At(start+sim.Time(ci), op)
	}
	if err := h.inj.Install(); err != nil {
		panic(fmt.Sprintf("oltp: rack plan: %v", err))
	}
}

// RackResult is the window measurement of one rack run.
type RackResult struct {
	Rel          stats.Reliability // merged window counters
	Goodput      float64           // successful ops per second
	ErrorRate    float64
	Availability float64
	RetryAmp     float64
	AvgLatency   sim.Time // mean latency of the successful ops that end inside the stats.Window
	P50          sim.Time
	P99          sim.Time
	P999         sim.Time
	PerMachine   []*stats.Accumulator
	Merged       stats.Accumulator
	// LinkDowntime is each wire's total down time, in wiring order.
	LinkDowntime []sim.Time
}

// readout gives each machine's accumulator its breakdown over the
// window, bds from measure, and merges them.
func (h *rack) readout(bds []stats.Breakdown) RackResult {
	for i, bd := range bds {
		h.accs[i].Breakdown = bd
	}
	merged := stats.MergeAll(h.accs)
	res := RackResult{
		Rel:          merged.Rel,
		Goodput:      merged.Rel.Goodput(h.win.End - h.win.Start),
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
