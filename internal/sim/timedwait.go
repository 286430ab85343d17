package sim

// Double-armed waits: a Waiter armed with both a deadline wake and
// (maybe) a completion wake — whichever fires first wins, and the loser
// is a stale wake the engine discards at pop time. The chaos rack
// clients and the open-loop load generator both block this way: the
// request may complete, or the client's patience may run out, and the
// two races must resolve deterministically in simulated-time order.
//
// PrepareTimedWait arms the wait and pre-fires the deadline; the caller
// then hands the Waiter to whoever will deliver the completion (an
// ingress, a link handler) and parks with WaitTimed (boxed lane) or
// WaitU64 (word lane, where a payU64 wake is the completion proof). If
// the completion wake lands first, the deadline timer becomes stale and
// is dropped by the heap; if the deadline fires first, the eventual
// completion wake is the stale one — either way exactly one wake is
// delivered.

// PrepareTimedWait arms the Proc for a wait bounded by d: it bumps the
// generation like PrepareWait and immediately schedules the deadline
// wake carrying the canonical timeout payload. It is the one way a timed
// wait arms its deadline (WaitQueue.WaitTimeout calls it too), and the
// deadline waits on the engine's timer lane for d, so the deadlines a
// workload abandons do not deepen the event heap. The returned Waiter is
// the completion handle — fire it (Wake/WakeU64) to win the race
// against the deadline.
//
//dipcvet:noalloc
func (p *Proc) PrepareTimedWait(d Time) Waiter {
	w := p.PrepareWait()
	p.eng.pushTimer(d, p, w.gen, payload{kind: payTimeout})
	return w
}

// WaitTimed parks until the wait armed by PrepareTimedWait resolves.
// completed is false if the deadline fired first; otherwise v is the
// completion wake's payload (which may itself be nil — a bare Wake is a
// completion, not a timeout).
func (p *Proc) WaitTimed() (v any, completed bool) {
	pl := p.park(nil)
	if pl.kind == payTimeout {
		return nil, false
	}
	return pl.value(), true
}
