// Package hooksafetest exercises the hook-guard checks against the
// real faults and oltp packages.
package hooksafetest

import (
	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/sim"
)

// mutators: write-side LinkState methods are not nil-safe, so bare call
// sites are flagged while guarded or annotated ones are not.
func mutators(ls *faults.LinkState, now sim.Time) {
	ls.SetDown(true, now) // want `faults.\(\*LinkState\).SetDown is not nil-safe`
	ls.SetExtra(3)        // want `faults.\(\*LinkState\).SetExtra is not nil-safe`
	if ls != nil {
		ls.SetExtra(5) // guarded: not flagged
	}
	if ls == nil {
		_ = now
	} else {
		ls.SetDown(false, now) // guarded via the else branch: not flagged
	}
	//dipcvet:hook-ok injector only resolves planned links, never nil
	ls.SetExtra(0)
}

// healthMutators: the ReplicaHealth write side is detector-only and
// not nil-safe, so bare call sites outside package oltp are flagged
// while guarded or annotated ones are not.
func healthMutators(h *oltp.ReplicaHealth, now sim.Time) {
	h.Suspect(1, now) // want `oltp.\(\*ReplicaHealth\).Suspect is detector-only and not nil-safe`
	h.Clear(1, now)   // want `oltp.\(\*ReplicaHealth\).Clear is detector-only and not nil-safe`
	if h != nil {
		h.Suspect(0, now) // guarded: not flagged
		h.Clear(0, now)   // guarded: not flagged
	}
	if h == nil {
		_ = now
	} else {
		h.Suspect(2, now) // guarded via the else branch: not flagged
	}
	//dipcvet:hook-ok the detector only probes tables it allocated, never nil
	h.Clear(2, now)
}

// healthReads: ReplicaHealth read-side methods are nil-safe and never
// flagged.
func healthReads(h *oltp.ReplicaHealth) int {
	if h.Suspected(0) {
		return 0
	}
	return len(h.Transitions())
}

// reads: read-side methods are nil-safe by contract and never flagged.
func reads(ls *faults.LinkState, now sim.Time) sim.Time {
	if !ls.Up() {
		return ls.ExtraDelay()
	}
	return ls.Downtime(now)
}
