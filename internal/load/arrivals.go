// Package load is the open-loop traffic layer: a Poisson arrival process
// that emits work at a configured offered rate regardless of whether the
// system keeps up, and a session generator that models connection churn
// — clients arrive, issue a bounded number of requests against a
// deadline, and abandon. The closed-loop oltp drivers measure peak
// throughput (the paper's §7 methodology); this package exists to
// measure what those drivers structurally cannot: tail latency as a
// function of offered load, and behavior past the saturation knee,
// where a closed loop would simply slow its clients down and hide the
// overload.
//
// Determinism: the arrival draws consume one seeded sim.Rand stream of
// their own (the detrand contract), so the event sequence is a pure
// function of (seed, config).
package load

import "repro/internal/sim"

// Arrivals is one seeded Poisson arrival stream: memoryless arrivals at
// a constant mean rate.
type Arrivals struct {
	rng  *sim.Rand
	mean sim.Time // mean inter-arrival gap
}

// NewPoisson returns a memoryless source with the given mean
// inter-arrival gap (<= 0 takes 10us).
func NewPoisson(seed uint64, mean sim.Time) *Arrivals {
	if mean <= 0 {
		mean = sim.Micros(10)
	}
	return &Arrivals{rng: sim.NewRand(seed), mean: mean}
}

// Next draws the gap to the next arrival.
func (a *Arrivals) Next() sim.Time {
	g := a.rng.Exp(a.mean)
	if g < 1 {
		g = 1 // strictly advancing: two arrivals never share an instant
	}
	return g
}
