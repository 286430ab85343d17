// Package netpipe reproduces the device-driver isolation case study of
// §7.3: a netpipe-style benchmark (NPtcp over rsocket) running on an
// Infiniband-like NIC whose user-level driver is isolated with different
// mechanisms — inline (bare), a dIPC domain, a dIPC process, the kernel
// (syscalls), or classic IPC (semaphores / pipes). The paper's Figure 7
// reports the latency and bandwidth overhead of each variant relative to
// the bare driver.
package netpipe

import (
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// NIC models an RDMA-capable adapter: messages depart after a base
// latency plus wire time, the remote peer reflects ping-pong traffic,
// and the wire serializes back-to-back streaming.
type NIC struct {
	m *kernel.Machine
	// wireFree is when the transmit wire becomes available again.
	wireFree sim.Time
	// flt is the optional failure hook: loss windows gate Up, and
	// degradation windows stretch FlightTime. Nil (the default) is a
	// healthy link with zero added cost.
	flt *faults.LinkState
}

// NewNIC attaches a NIC model to the machine.
func NewNIC(m *kernel.Machine) *NIC { return &NIC{m: m} }

// SetFaults attaches a failure state to the NIC's transmit path. The
// fault injector toggles it on this machine's engine.
func (n *NIC) SetFaults(ls *faults.LinkState) { n.flt = ls }

// Up reports whether the transmit link is currently delivering; a send
// attempted while the link is down must be dropped by the caller (and
// counted via the LinkState).
func (n *NIC) Up() bool { return n.flt.Up() }

// FlightTime is the one-way latency of a size-byte message: base latency
// plus wire time, stretched by any active degradation window. Exported
// so multi-machine models can use the same figure when delaying
// deliveries over a sim.Cluster link; the degradation is additive, so
// FlightTime never drops below Lookahead.
func (n *NIC) FlightTime(size int) sim.Time {
	p := n.m.P
	return p.NICBaseLatency +
		sim.Time(float64(size)/p.NICBytesPerNs*float64(sim.Nanosecond)) +
		n.flt.ExtraDelay()
}

// flightTime is the unexported spelling kept for the intra-package call
// sites.
func (n *NIC) flightTime(size int) sim.Time { return n.FlightTime(size) }

// Lookahead is the minimum scheduling-visible delay of any NIC delivery —
// the base latency, since FlightTime(size) >= NICBaseLatency for every
// size. A cross-machine sim.Link declares this lookahead, and every send
// on it is checked against it.
func (n *NIC) Lookahead() sim.Time { return n.m.P.NICBaseLatency }

// PingPong blocks the calling thread for one ping-pong round trip of
// size-byte messages with a zero-cost remote reflector (the NPtcp
// latency test measures RTT/2).
func (n *NIC) PingPong(t *kernel.Thread, size int) {
	t.SleepFor(2 * n.flightTime(size))
}

// Post enqueues one size-byte message for transmission and returns
// immediately; the wire serializes transmissions. Used by the streaming
// bandwidth test.
func (n *NIC) Post(size int) {
	now := n.m.Eng.Now()
	if n.wireFree < now {
		n.wireFree = now
	}
	wire := sim.Time(float64(size) / n.m.P.NICBytesPerNs * float64(sim.Nanosecond))
	n.wireFree += wire
}

// Drain blocks until all posted messages have left the wire.
func (n *NIC) Drain(t *kernel.Thread) {
	now := n.m.Eng.Now()
	if n.wireFree > now {
		t.SleepFor(n.wireFree - now)
	}
}

// DriverOpCost is the user-level driver's per-operation work: building
// the work-queue entry, ringing the doorbell, reaping the completion.
const DriverOpCost = 120 * sim.Nanosecond
