package faults

import "repro/internal/sim"

// Verdict is the fate the fault stream assigns one call attempt.
type Verdict uint8

const (
	// VerdictOK lets the attempt through untouched.
	VerdictOK Verdict = iota
	// VerdictDrop loses the request: the caller learns nothing until
	// its per-call deadline expires (the returned delay is that
	// deadline).
	VerdictDrop
	// VerdictSlow delays the attempt by the returned amount, then lets
	// it through.
	VerdictSlow
)

// CallSite is one hooked call path's probabilistic fault stream. Each
// site owns an explicit sim.Rand seeded from (plan seed, site name) by a
// splitmix64-style mix — never from any engine's stream — so verdicts
// are a pure function of the plan and the site's own call sequence
// (determinism rule 2). A nil *CallSite
// is the always-OK hook; every method is nil-safe.
type CallSite struct {
	rng         *sim.Rand
	dropProb    float64
	slowProb    float64
	slowBy      sim.Time
	dropPenalty sim.Time
	dropErr     error // "<name>: " + ErrTimeout, built once per site
}

// Site derives the named call site's fault stream from the plan.
// dropPenalty is what a dropped request costs the caller — its per-call
// deadline. Returns nil (the transparent hook) when the plan carries no
// per-call fault probabilities, so empty-plan wiring stays a no-op.
func (p *Plan) Site(name string, dropPenalty sim.Time) *CallSite {
	if p == nil || (p.DropProb == 0 && p.SlowProb == 0) {
		return nil
	}
	return &CallSite{
		rng:         sim.NewRand(siteSeed(p.Seed, name)),
		dropProb:    p.DropProb,
		slowProb:    p.SlowProb,
		slowBy:      p.SlowBy,
		dropPenalty: dropPenalty,
		dropErr:     &Error{Msg: name, Err: ErrTimeout},
	}
}

// jitterSalt decorrelates backoff-jitter streams from the CallSite
// fault streams that share the same plan seed and site name.
const jitterSalt = 0xa5a5f00dcafe4b1d

// JitterStream returns the named deterministic random stream for
// RetryPolicy backoff jitter, seeded from the plan's splitmix64 mix of
// (seed, name) plus a salt so it never correlates with the site's fault
// draws. Nil plan -> nil stream (the transparent hook: BackoffJittered
// falls back to the exact schedule).
func (p *Plan) JitterStream(name string) *sim.Rand {
	if p == nil {
		return nil
	}
	return sim.NewRand(siteSeed(p.Seed^jitterSalt, name))
}

// Draw consumes one value from the stream and returns the attempt's
// fate plus the simulated delay the caller must charge before acting on
// it (the deadline for a drop, the slowdown for a slow call, 0
// otherwise).
func (s *CallSite) Draw() (Verdict, sim.Time) {
	if s == nil {
		return VerdictOK, 0
	}
	u := s.rng.Float64()
	switch {
	case u < s.dropProb:
		return VerdictDrop, s.dropPenalty
	case u < s.dropProb+s.slowProb:
		return VerdictSlow, s.slowBy
	}
	return VerdictOK, 0
}

// DropErr returns the error a dropped call at this site reports: the
// site's name wrapping ErrTimeout, shared by every drop (nil for the nil
// hook, which never drops).
func (s *CallSite) DropErr() error {
	if s == nil {
		return nil
	}
	return s.dropErr
}

// siteSeed mixes the plan seed with an FNV-1a hash of the site name
// through a splitmix64 finalizer, so distinct sites get decorrelated but
// reproducible streams.
func siteSeed(seed uint64, name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := seed + h*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}
