package oltp

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Deterministic sim-time health detection. A detector process probes
// every replica on a fixed period over the same NIC links requests
// travel, and suspects a replica whose last acknowledgement is older
// than a timeout — pure sim-clock arithmetic, no wall time, no global
// randomness, so detection latency is a modeled quantity that replays
// byte-identically.

// DetectorConfig parameterizes the health detector.
type DetectorConfig struct {
	// Every is the probe period (default 200us).
	Every sim.Time
	// Timeout is the suspicion threshold: a replica whose newest ack is
	// older than this is suspected (default 4*Every).
	Timeout sim.Time
}

// probeBytes sizes a health probe message on the wire.
const probeBytes = 64

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Every <= 0 {
		c.Every = sim.Micros(200)
	}
	if c.Timeout <= 0 {
		c.Timeout = 4 * c.Every
	}
	return c
}

// HealthTransition is one suspicion flip of one replica, stamped in sim
// time — the detector's post-hoc debugging record and the input to
// detector scoring (false positives, detection latency).
type HealthTransition struct {
	At        sim.Time
	Replica   int
	Suspected bool
}

// ReplicaHealth is the shared suspicion table the detector writes and
// routing policies read. It follows the same nil-transparency contract
// as faults.LinkState: a nil *ReplicaHealth is a valid hook on which
// every reader returns the healthy default, so unreplicated (or
// detector-less) configurations wire nil and pay nothing. The readers
// (Suspected, Suspicions, Transitions) are nil-safe; the mutators
// (Suspect, Clear) are not — they are declared mutators that only the
// owning detector may call, a contract enforced by the hooksafe
// analyzer.
type ReplicaHealth struct {
	suspected []bool
	log       []HealthTransition
}

// NewReplicaHealth tracks n replicas, all initially healthy.
func NewReplicaHealth(n int) *ReplicaHealth {
	return &ReplicaHealth{suspected: make([]bool, n)}
}

// Suspected reports whether replica i is currently under suspicion.
// Nil-safe: a nil table (or out-of-range index) reads healthy.
func (h *ReplicaHealth) Suspected(i int) bool {
	if h == nil || i < 0 || i >= len(h.suspected) {
		return false
	}
	return h.suspected[i]
}

// Transitions returns the suspicion flip log in sim-time order.
// Nil-safe; read it after the run.
func (h *ReplicaHealth) Transitions() []HealthTransition {
	if h == nil {
		return nil
	}
	return h.log
}

// Suspect marks replica i suspected at time now. Mutator: detector
// only; no-op if already suspected.
func (h *ReplicaHealth) Suspect(i int, now sim.Time) {
	if h.suspected[i] {
		return
	}
	h.suspected[i] = true
	h.log = append(h.log, HealthTransition{At: now, Replica: i, Suspected: true})
}

// Clear marks replica i healthy again at time now. Mutator: detector
// only; no-op if not suspected.
func (h *ReplicaHealth) Clear(i int, now sim.Time) {
	if !h.suspected[i] {
		return
	}
	h.suspected[i] = false
	h.log = append(h.log, HealthTransition{At: now, Replica: i, Suspected: false})
}

// deadInterval is one [From, Until) window during which a replica was
// administratively dead (killed and not yet restarted), derived from
// the static fault plan — so detector scoring needs no read of live
// process state.
type deadInterval struct {
	Replica     int
	From, Until sim.Time
}

// scoreDetector classifies every suspect transition against the plan's
// dead intervals and folds the verdicts into rel: a suspicion that
// begins while its replica is dead is a detection (detection latency =
// suspicion time minus kill time); any other suspicion is a false
// positive (e.g. a flapping link starving probes of a live replica).
func scoreDetector(rel *stats.Reliability, log []HealthTransition, dead []deadInterval) {
	for _, tr := range log {
		if !tr.Suspected {
			continue
		}
		rel.Suspicions++
		matched := false
		for _, d := range dead {
			if d.Replica == tr.Replica && tr.At >= d.From && (d.Until == 0 || tr.At < d.Until) {
				rel.Detections++
				rel.DetectLatency += tr.At - d.From
				matched = true
				break
			}
		}
		if !matched {
			rel.FalseSuspects++
		}
	}
}
