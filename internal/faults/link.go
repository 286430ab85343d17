package faults

import "repro/internal/sim"

// LinkState is the failure state of one directed network link: a loss
// window (down links black-hole sends) and a degradation window (extra
// per-delivery delay). It is owned by the sending machine: the Injector
// toggles it via events on that machine's engine, and only that
// machine's model code reads it. A nil *LinkState reads as a
// healthy link; the read-side methods are nil-safe so un-faulted wiring
// costs nothing.
type LinkState struct {
	down      bool
	extra     sim.Time
	downSince sim.Time
	downTotal sim.Time
}

// Up reports whether the link is currently delivering.
func (ls *LinkState) Up() bool { return ls == nil || !ls.down }

// ExtraDelay is the current degradation window's per-delivery delay.
func (ls *LinkState) ExtraDelay() sim.Time {
	if ls == nil {
		return 0
	}
	return ls.extra
}

// SetDown opens (true) or closes (false) the loss window at simulated
// time now, accumulating downtime for availability accounting.
func (ls *LinkState) SetDown(down bool, now sim.Time) {
	if down == ls.down {
		return
	}
	if down {
		ls.downSince = now
	} else {
		ls.downTotal += now - ls.downSince
	}
	ls.down = down
}

// SetExtra sets the degradation window's per-delivery delay (clamped at
// zero: a fault may slow a link, never predict the future).
func (ls *LinkState) SetExtra(d sim.Time) {
	if d < 0 {
		d = 0
	}
	ls.extra = d
}

// Downtime returns the total loss-window time through now, including a
// still-open window.
func (ls *LinkState) Downtime(now sim.Time) sim.Time {
	if ls == nil {
		return 0
	}
	d := ls.downTotal
	if ls.down && now > ls.downSince {
		d += now - ls.downSince
	}
	return d
}
