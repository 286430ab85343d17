package oltp

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// Replica routing. A ReplicaSet decides which of N replicas an
// operation attempt should target, consulting the health detector's
// suspicion table; a Router lifts that decision into the Transport
// interface so it composes under the existing resilience stack
// (Gateway -> Retrier -> Router -> per-replica Breaker -> wire).

// RoutePolicy selects the replica-picking strategy.
type RoutePolicy int

const (
	// PolicyFailover always prefers replica 0 and fails over, in index
	// order, to the next unsuspected replica.
	PolicyFailover RoutePolicy = iota
	// PolicyRoundRobin rotates the preferred replica per operation,
	// skipping suspected replicas.
	PolicyRoundRobin
	// PolicyHedged rotates like round-robin and additionally issues a
	// duplicate request to the next healthy replica once a fraction of
	// the attempt deadline has elapsed; first response wins, the loser
	// is cancelled. Hedging needs an asynchronous completion path, so
	// it only takes effect in the replicated rack runner
	// (RunReplicated); under the synchronous Router transport it
	// degrades to round-robin.
	PolicyHedged
)

// String names the policy for series labels and docs.
func (p RoutePolicy) String() string {
	switch p {
	case PolicyFailover:
		return "failover"
	case PolicyRoundRobin:
		return "roundrobin"
	case PolicyHedged:
		return "hedged"
	default:
		return fmt.Sprintf("RoutePolicy(%d)", int(p))
	}
}

// ReplicaSet is the pick-state for routing over N replicas, shared by
// the clients and the detector on machine 0. Health may be nil (no
// detector: every replica reads healthy).
type ReplicaSet struct {
	N      int
	Policy RoutePolicy
	Health *ReplicaHealth
	// Rel receives failover accounting (may be nil).
	Rel *stats.Reliability

	rr uint64 // round-robin cursor
}

// Begin starts one operation and returns its nominal (preferred)
// replica: 0 for failover, the next rotation slot for round-robin and
// hedged.
func (rs *ReplicaSet) Begin() int {
	if rs.Policy == PolicyFailover || rs.N <= 1 {
		return 0
	}
	i := int(rs.rr % uint64(rs.N))
	rs.rr++
	return i
}

// Pick returns the replica for candidate number k (0-based) of an
// operation whose nominal replica is base: the k-th unsuspected replica
// in rotation order from base, falling back to plain rotation when
// every replica is suspected (a fully-suspected set must still make
// progress — suspicion is advisory, not a partition). Any pick that
// lands off the nominal replica counts as a failover.
func (rs *ReplicaSet) Pick(base, k int) int {
	n := rs.N
	if n <= 0 {
		return 0
	}
	pick := (base + k) % n
	healthy := 0
	for i := 0; i < n; i++ {
		if !rs.Health.Suspected((base + i) % n) {
			healthy++
		}
	}
	if healthy > 0 {
		seen := 0
		for i := 0; i < n; i++ {
			c := (base + i) % n
			if rs.Health.Suspected(c) {
				continue
			}
			if seen == k%healthy {
				pick = c
				break
			}
			seen++
		}
	}
	if pick != base && rs.Rel != nil {
		rs.Rel.Failovers++
	}
	return pick
}

// Next returns the first unsuspected replica after i in rotation order
// (or the plain successor when all are suspected) — the hedge target.
func (rs *ReplicaSet) Next(i int) int {
	n := rs.N
	if n <= 1 {
		return i
	}
	for k := 1; k < n; k++ {
		c := (i + k) % n
		if !rs.Health.Suspected(c) {
			return c
		}
	}
	return (i + 1) % n
}

// Router is the Transport face of a ReplicaSet: one synchronous call
// fans out over the replicas' transports, trying each candidate once in
// pick order and failing over on any error (a rejection sheds one
// replica, not the operation — the next candidate still runs; it is the
// Retrier stacked above the Router that refuses to re-run an operation
// whose final verdict was a rejection). Place per-replica Breakers
// between the Router and the wire so a tripped replica fast-fails into
// an immediate failover.
type Router struct {
	Replicas []Transport
	Set      ReplicaSet
}

// NewRouter routes over replicas with the given policy and health table
// (health may be nil). rel receives failover accounting (may be nil).
func NewRouter(replicas []Transport, policy RoutePolicy, health *ReplicaHealth, rel *stats.Reliability) *Router {
	return &Router{
		Replicas: replicas,
		Set:      ReplicaSet{N: len(replicas), Policy: policy, Health: health, Rel: rel},
	}
}

// TryCall implements Transport: try each replica once, first success
// wins, last error propagates when every replica failed.
func (r *Router) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	base := r.Set.Begin()
	var lastErr error
	for k := 0; k < len(r.Replicas); k++ {
		i := r.Set.Pick(base, k)
		out, err := r.Replicas[i].TryCall(t, op, payload, reqBytes)
		if err == nil {
			return out, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("oltp: router: no replicas")
	}
	return nil, lastErr
}
