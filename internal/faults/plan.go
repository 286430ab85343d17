// Package faults is the deterministic fault-injection subsystem: a
// typed, seeded schedule of failures (process kill/restart, link loss
// and extra-delay windows) plus probabilistic per-call faults drawn from
// splitmix64-derived streams. Every fault fires as an
// ordinary event on the simulated clock of the engine that owns its
// target, so a chaos run obeys the same determinism contract as a
// failure-free one: the same plan and seed reproduce the same digest.
//
// The package deliberately knows nothing about transports or scenarios.
// Models expose hooks (netpipe.NIC takes a LinkState, the oltp
// transports take a CallSite), wiring code registers named targets with
// an Injector, and the Injector schedules the plan's events on the
// engines that own those targets.
package faults

import (
	"errors"

	"repro/internal/sim"
)

// Kind classifies one scheduled fault event.
type Kind uint8

const (
	// KillProc marks the target process dead (kernel.Machine.Kill).
	KillProc Kind = iota + 1
	// RestartProc revives the target process (kernel.Machine.Restart).
	RestartProc
	// LinkDown opens a loss window on the target link: sends are
	// black-holed until LinkUp.
	LinkDown
	// LinkUp closes the loss window.
	LinkUp
	// LinkDegrade adds Event.Extra of delay to every delivery on the
	// target link until LinkRestore.
	LinkDegrade
	// LinkRestore clears the extra delay.
	LinkRestore
)

func (k Kind) String() string {
	switch k {
	case KillProc:
		return "kill"
	case RestartProc:
		return "restart"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	}
	return "unknown"
}

// Event is one scheduled fault: at absolute simulated time At, do Kind
// to the registered target named Target.
type Event struct {
	At     sim.Time // absolute simulated time (from clock zero)
	Kind   Kind
	Target string   // name the wiring registered with the Injector
	Extra  sim.Time // LinkDegrade: per-delivery extra delay
}

// Plan is a deterministic fault schedule: a typed event list plus the
// parameters of the probabilistic per-call fault stream. The zero value
// (and nil) is the empty plan — installing it is a no-op, which is the
// empty-plan half of the determinism contract: a model wired for chaos
// but given no plan must produce byte-identical results to one never
// wired at all.
type Plan struct {
	// Seed derives every per-call fault stream (splitmix64-mixed with
	// the call site's name), independent of the simulation's own seeds.
	Seed uint64

	// Events is the typed schedule. Order within the slice breaks ties
	// between events at the same instant on the same engine.
	Events []Event

	// Per-call fault probabilities, drawn once per hooked call:
	// DropProb loses the request (the caller burns its deadline),
	// SlowProb delays it by SlowBy.
	DropProb float64
	SlowProb float64
	SlowBy   sim.Time
}

// Flap appends alternating LinkDown/LinkUp windows for the named link:
// down at from, from+period, ... (each for down long), until past the
// until bound. A flapping-NIC schedule in one call.
func Flap(target string, from, until, period, down sim.Time) []Event {
	var evs []Event
	for at := from; at < until; at += period {
		evs = append(evs,
			Event{At: at, Kind: LinkDown, Target: target},
			Event{At: at + down, Kind: LinkUp, Target: target})
	}
	return evs
}

// Typed attempt-failure errors shared by the hooked call paths.
var (
	// ErrTimeout: the attempt's per-call deadline expired (a dropped
	// request, or a response that never came back in time).
	ErrTimeout = errors.New("faults: call deadline exceeded")
	// ErrDead: the attempt targeted a dead process.
	ErrDead = errors.New("faults: target process is dead")
	// ErrRejected: admission control refused the operation before any
	// work was done on it (a shed request, not a failed one — cheap by
	// design, counted separately in Reliability.Rejected).
	ErrRejected = errors.New("faults: rejected by admission control")
)

// RetryPolicy is the typed parameter block of the error path: a
// per-attempt deadline and a capped exponential backoff schedule.
type RetryPolicy struct {
	// Deadline bounds one attempt: a lost request costs the caller
	// exactly this much simulated time before it times out.
	Deadline sim.Time
	// MaxRetries is how many times a failed attempt is retried (0 means
	// one attempt, no retry).
	MaxRetries int
	// Backoff is the sleep before the first retry; each further retry
	// doubles it.
	Backoff sim.Time
	// MaxBackoff caps the exponential growth (0: uncapped).
	MaxBackoff sim.Time
	// Jitter de-synchronizes retry storms: each backoff is shortened by
	// a uniform draw in [0, Jitter*backoff) from the caller's jitter
	// stream (see Plan.JitterStream). 0 (the default) keeps the exact
	// deterministic schedule, so existing digests are untouched; 1 is
	// full jitter. Callers that pass no stream also get the exact
	// schedule regardless of Jitter.
	Jitter float64
}

// BackoffFor returns the capped exponential backoff before retry number
// retry (0-based: retry 0 follows the first failed attempt).
func (rp RetryPolicy) BackoffFor(retry int) sim.Time {
	d := rp.Backoff
	for i := 0; i < retry; i++ {
		d *= 2
		if rp.MaxBackoff > 0 && d >= rp.MaxBackoff {
			return rp.MaxBackoff
		}
	}
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		return rp.MaxBackoff
	}
	return d
}

// BackoffJittered is BackoffFor with the policy's jitter applied: the
// schedule value shortened by a uniform fraction of itself drawn from
// rng. With Jitter <= 0 or a nil stream it is exactly BackoffFor —
// nil-transparent like every other fault hook, so un-jittered callers
// never pay for (or observe) the draw.
func (rp RetryPolicy) BackoffJittered(retry int, rng *sim.Rand) sim.Time {
	d := rp.BackoffFor(retry)
	if rp.Jitter <= 0 || rng == nil || d <= 0 {
		return d
	}
	j := rp.Jitter
	if j > 1 {
		j = 1
	}
	return d - sim.Time(j*rng.Float64()*float64(d))
}
