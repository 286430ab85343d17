package oltp

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestOnlyKernelThreadsAreProcs: the off-machine clients and the health
// detector are engine callbacks, so in a short run of each runner every
// proc the engine spawned is a kernel thread. A thread's ID is one more
// than the number of threads its machine spawned before it, so one more
// thread per machine counts them.
func TestOnlyKernelThreadsAreProcs(t *testing.T) {
	check := func(t *testing.T, eng *sim.Engine, ms []*kernel.Machine, until sim.Time) {
		t.Helper()
		eng.RunUntil(until)
		threads := 0
		for _, m := range ms {
			threads += m.Spawn(m.NewProcess("count"), "count", nil, func(*kernel.Thread) {}).ID
		}
		if got := eng.Stats().Spawned; got != uint64(threads) {
			t.Errorf("the engine spawned %d procs, the machines %d threads", got, threads)
		}
	}
	t.Run("Run", func(t *testing.T) {
		cfg := Config{Mode: ModeDIPC, InMemory: true, Threads: 4, CPUs: 2, Seed: 1}
		r, _ := startStack(&cfg)
		defer r.eng.Close()
		check(t, r.eng, []*kernel.Machine{r.m}, cfg.Warmup+sim.Millis(1))
	})
	t.Run("RunOpenLoop", func(t *testing.T) {
		cfg := openLoopShape(ModeLinux, 1, 0.01)
		r, gen, _ := startOpenLoop(&cfg)
		defer r.eng.Close()
		check(t, r.eng, []*kernel.Machine{r.m}, sim.Millis(5))
		if gen.Created == 0 || r.gw.Admitted == 0 {
			t.Fatalf("%d sessions created, %d requests admitted; want some", gen.Created, r.gw.Admitted)
		}
	})
	t.Run("RunReplicated", func(t *testing.T) {
		cfg := ReplicatedConfig{Mode: ModeDIPC, Replicas: 2, Depth: 2, Threads: 2, Clients: 4,
			Work: sim.Micros(10), Seed: 1, Policy: PolicyHedged, HedgeFraction: 0.5,
			Retry: faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2}}
		cfg.applyDefaults()
		h, _, _ := startReplicated(&cfg)
		defer h.cl.Close()
		check(t, h.eng, h.ms, replicatedBootTime+sim.Millis(2))
		if bd := h.ms[1].Snapshot(); bd[stats.BlockUser] == 0 {
			t.Fatal("replica 1 served no request")
		}
	})
}

// TestRackDeadlineBeatsSameInstantReply: a client's deadline and a reply
// due at the same instant race as they always have. The deadline is an
// engine event and the reply a link delivery, which sorts after every
// engine event of its instant, so the attempt times out and the reply
// finds its ID gone and counts as cancelled.
func TestRackDeadlineBeatsSameInstantReply(t *testing.T) {
	h, tx, deadline := echoRack() // the first reply lands at the deadline
	defer h.cl.Close()
	h.win = stats.Window{End: deadline}
	h.startClients(0, ReplicaSet{N: 1}, []*wire{tx}, echoSize, faults.RetryPolicy{Deadline: deadline}, nil, 0)
	h.eng.RunUntil(deadline)
	rel := h.accs[0].Rel
	if rel.Timeouts != 1 || rel.Cancelled != 1 || rel.OpsFailed != 1 || rel.OpsOK != 0 {
		t.Fatalf("timeouts %d, cancelled %d, failed %d, ok %d; want the deadline to win: 1, 1, 1, 0",
			rel.Timeouts, rel.Cancelled, rel.OpsFailed, rel.OpsOK)
	}
}

// echoRack returns a two-machine rack whose machine 1 echoes every
// echoSize-byte request straight back, machine 0's wire to it, and the
// instant the first reply to a client starting at 0 lands.
func echoRack() (h *rack, tx *wire, land sim.Time) {
	h = newRack(1, 2, 1, 1, &faults.Plan{}, stats.Window{})
	tx = h.connect("tx", 0, 1)
	rx := h.connect("rx", 1, 0)
	back := rx.nic.FlightTime(echoSize)
	tx.link.SetHandler(func(v uint64) { rx.link.SendU64(back, v) }) // an instant echo
	rx.link.SetHandler(h.complete)
	return h, tx, tx.nic.FlightTime(echoSize) + back
}

const echoSize = 64

// TestRackCountsReplyAtWindowStart: the window holds its start edge. A
// reply that lands at the very instant measure opens the window counts
// as a success of the window, like a closed-loop completion at warmup.
func TestRackCountsReplyAtWindowStart(t *testing.T) {
	h, tx, land := echoRack()
	defer h.cl.Close()
	h.win = stats.Window{Start: land, End: land}
	h.startClients(0, ReplicaSet{N: 1}, []*wire{tx}, echoSize, faults.RetryPolicy{}, nil, 0)
	measure(h.eng, h.ms, h.win, nil)
	if rel := h.accs[0].Rel; rel.OpsOK != 1 || rel.OpsFailed != 0 || rel.Attempts != 0 {
		t.Fatalf("ok %d, failed %d, attempts %d; want the reply at the window's start counted: 1, 0, 0",
			rel.OpsOK, rel.OpsFailed, rel.Attempts)
	}
}

// TestClosedLoopClientStreams pins that closed-loop client c draws its
// operations from its own stream sim.NewRand(seed*7919+c): the first
// operations each client completes are those genOp draws from that
// stream, and each client's query slots keep room for the largest plan.
func TestClosedLoopClientStreams(t *testing.T) {
	const seed, first = 5, 3
	cfg := Config{Mode: ModeIdeal, InMemory: true, Threads: 4, CPUs: 2, Seed: seed}
	r, _ := startStack(&cfg)
	defer r.eng.Close()
	got := make([][]Operation, len(r.clients))
	for c := range r.clients {
		c, cl := c, &r.clients[c]
		cl.req.done = func(v uint64) {
			if len(got[c]) < first {
				op := Operation{Kind: cl.op.Kind, Queries: slices.Clone(cl.op.Queries)}
				for i := range op.Queries {
					op.Queries[i].R = QueryResult{} // the database's answer, not the plan
				}
				got[c] = append(got[c], op)
			}
			r.done(v)
		}
	}
	r.eng.RunUntil(sim.Millis(20))
	for c := range got {
		if len(got[c]) < first {
			t.Fatalf("client %d completed %d operations, want %d", c, len(got[c]), first)
		}
		rng := sim.NewRand(seed*7919 + uint64(c))
		for i, op := range got[c] {
			var want Operation
			genOp(rng, r.prm, &want)
			if !reflect.DeepEqual(op, want) {
				t.Errorf("client %d operation %d = %+v, want %+v", c, i, op, want)
			}
		}
		if n := cap(r.clients[c].op.Queries); n != r.prm.maxPlan() {
			t.Errorf("client %d has room for %d queries, want %d", c, n, r.prm.maxPlan())
		}
	}
}
