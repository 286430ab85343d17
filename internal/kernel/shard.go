package kernel

import (
	"repro/internal/cost"
	"repro/internal/sim"
)

// PlaceMachines builds n machines with ncpus CPUs each on the shards of
// cluster c, machine i on shard i % c.Shards() (round-robin).
//
// A machine is the unit of placement: all of its CPUs, threads and wait
// queues share one engine, and the kernel's scheduling — run-queue
// stealing, wake-affinity, futex wakes — assumes zero-latency visibility
// between them, so a machine can never be split across shards (there is
// no positive lookahead inside a machine to declare). What does carry
// lookahead is the modeled transport between machines — NIC wire latency
// — which is exactly where the caller should put its cross-shard Links.
func PlaceMachines(c *sim.Cluster, p *cost.Params, n, ncpus int) []*Machine {
	ms := make([]*Machine, n)
	for i := range ms {
		ms[i] = NewMachine(c.Shard(i%c.Shards()).Engine(), p, ncpus)
	}
	return ms
}
