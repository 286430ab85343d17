// The multi-machine ring: closed-loop clients on machine 0 inject a
// request that hops through every other machine over NIC links (each
// hop costs wire flight time plus application work) and completes back
// at machine 0. It is the rack harness with one route (a ReplicaSet of
// one) plus its forwarding workers. With a faults.Plan it takes
// per-NIC link failures and tier kills; with a Retry deadline the
// clients time out and back off. The `rack` scenario runs it with no
// plan and no deadline, `chaos-rack` with both.

package oltp

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RingConfig is one ring run.
type RingConfig struct {
	Machines int // ring size (>= 1)
	CPUs     int // cores per machine
	Workers  int // service threads per non-client machine
	Clients  int // closed-loop clients on machine 0
	ReqBytes int // request size on the wire
	Work     sim.Time
	Window   sim.Time // measurement window (after warmup)
	Warmup   sim.Time
	Seed     uint64

	// Plan is the fault schedule. Targets: processes "svc1".."svcN"
	// (machine index = tier index), links "link0".."linkN" (machine
	// i's transmit NIC). Nil: fault-free.
	Plan *faults.Plan
	// Retry is the clients' per-operation policy. A zero Deadline means
	// no deadline: clients wait untimed.
	Retry faults.RetryPolicy
}

// Validate reports the first setting RunRing cannot run, naming the
// field at fault.
func (c RingConfig) Validate() error {
	if c.Clients > ridClientMask {
		return fmt.Errorf("clients must be <= %d (request-ID encoding), got %d", ridClientMask, c.Clients)
	}
	return nil
}

// RunRing builds the ring on one engine and runs warmup + window. A
// request reaching a dead tier or a downed transmit link is dropped —
// the client learns of it only through its deadline, exactly like a
// lost packet.
func RunRing(c RingConfig) *RackResult {
	if err := c.Validate(); err != nil {
		panic(fmt.Sprintf("oltp: ring: %v", err))
	}
	h := newRack(c.Seed, c.Machines, c.CPUs, c.Clients, c.Plan, stats.Window{Start: c.Warmup, End: c.Warmup + c.Window})
	defer h.cl.Close()

	// The ring wires, in machine order: machine i transmits to i+1, and
	// the full circle completes at machine 0's clients.
	inboxes := make([]*kernel.Inbox, c.Machines)
	outs := make([]*wire, c.Machines)
	for i := range outs {
		next := (i + 1) % c.Machines
		outs[i] = h.connect(fmt.Sprintf("link%d", i), i, next)
		if next == 0 {
			outs[i].link.SetHandler(h.complete)
			continue
		}
		in := &kernel.Inbox{}
		inboxes[next] = in
		outs[i].link.SetHandler(func(v uint64) { in.Submit(v) })
	}

	// Forwarding workers: one service process per non-client machine.
	for mi := 1; mi < c.Machines; mi++ {
		proc := h.ms[mi].NewProcess(fmt.Sprintf("svc%d", mi))
		h.inj.Proc(proc.Name, h.ms[mi], proc)
		h.serve(mi, proc, nil, fmt.Sprintf("m%d", mi), c.Workers, inboxes[mi], outs[mi], c.ReqBytes,
			func(t *kernel.Thread, v uint64) uint64 {
				t.ExecUser(c.Work)
				return v
			})
	}

	h.startClients(0, ReplicaSet{N: 1}, outs[:1], c.ReqBytes, c.Retry, c.Plan, 0)
	res := h.readout(measure(h.eng, h.ms, h.win, nil))
	return &res
}
