package sim

import (
	"fmt"
	"runtime"
)

// Cluster runs a multi-part simulation — machines joined by modeled
// wires — on a single Engine. A shard is a placement label: the model
// decides which part lives on which shard, and the cluster checks that
// any Link between two different shards declares a positive lookahead.
// The modeled transports supply it naturally: a NIC link's lookahead is
// its base wire latency, exactly where the dIPC paper puts cross-machine
// cost.
//
// # Determinism
//
// A run is reproducible from its seed if the model obeys three rules:
//
//  1. Every mutable simulation object (machine, queue, proc) is owned by
//     exactly one part, and parts interact only through Links.
//  2. Parts draw randomness from their own explicit Rand streams (seeded
//     from part identity), never from the engine's Rand.
//  3. Parts are connected in a fixed order, because link IDs (which
//     break link-delivery timestamp ties, see Link) are assigned in
//     Connect order.
type Cluster struct {
	eng    *Engine
	shards []*Shard
	links  int // links created so far; the next link's ID
}

// Shard is one placement label of a Cluster.
type Shard struct {
	c   *Cluster
	idx int
}

// NewCluster creates a cluster of n shards (n <= 0 means one per host
// core, i.e. GOMAXPROCS) on one engine seeded exactly like
// NewEngine(seed).
func NewCluster(seed uint64, n int) *Cluster {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c := &Cluster{eng: NewEngine(seed), shards: make([]*Shard, n)}
	for i := range c.shards {
		c.shards[i] = &Shard{c: c, idx: i}
	}
	return c
}

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Engine returns the engine the shard's parts run on — the cluster's one
// engine.
func (s *Shard) Engine() *Engine { return s.c.eng }

// Connect creates a link from shard `from` to shard `to` whose messages
// take at least lookahead of simulated time to arrive. A cross-shard link
// must declare positive lookahead — zero-latency coupling is what placing
// both parts on one shard expresses; Connect refuses rather than let a
// placement hide it. Links must be created in a fixed order (see the
// determinism rules).
func (c *Cluster) Connect(from, to *Shard, lookahead Time) *Link {
	if from.c != c || to.c != c {
		panic("sim: Connect across clusters")
	}
	if from != to && lookahead <= 0 {
		panic(fmt.Sprintf("sim: cross-shard link %d->%d needs positive lookahead; co-locate zero-latency parts on one shard",
			from.idx, to.idx))
	}
	if lookahead < 0 {
		lookahead = 0
	}
	if c.links >= 1<<linkIDBits {
		panic("sim: too many links")
	}
	c.links++
	return &Link{id: c.links - 1, eng: c.eng, lookahead: lookahead}
}

// RunUntil processes events up to and including time t, then sets the
// clock to t (see Engine.RunUntil).
func (c *Cluster) RunUntil(t Time) { c.eng.RunUntil(t) }

// Run processes events until the queue is empty and returns the engine's
// DeadlockError naming any procs left parked (see Engine.Run).
func (c *Cluster) Run() error { return c.eng.Run() }

// Close closes the engine (see Engine.Close), unwinding the procs still
// parked once the run is over.
func (c *Cluster) Close() { c.eng.Close() }
