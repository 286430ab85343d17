package oltp

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// freeList returns the gateway's pooled idle requests. A request on the
// list twice (a double return, which also makes the list cyclic) is an
// error, and the walk stops there.
func freeList(t *testing.T, g *Gateway) []*request {
	t.Helper()
	var out []*request
	for r := g.free; r != nil; r = r.next {
		if slices.Contains(out, r) {
			t.Errorf("request %p is on the free list twice", r)
			break
		}
		out = append(out, r)
	}
	return out
}

// poolGateway builds a gateway on a one-CPU machine with one worker
// that serves each request for serve, replies, and counts the reply in
// *replies. The worker reports any request it receives while that
// request sits on the free list, where Issue could hand it out again.
func poolGateway(t *testing.T, cfg GatewayConfig, serve sim.Time) (eng *sim.Engine, g *Gateway, replies *int64) {
	eng = sim.NewEngine(1)
	t.Cleanup(eng.Close)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	g = NewGateway(eng, DefaultParams(), cfg)
	replies = new(int64)
	m.Spawn(m.NewProcess("gw"), "worker", nil, func(th *kernel.Thread) {
		for {
			req := g.Recv(th)
			if slices.Contains(freeList(t, g), req) {
				t.Errorf("worker received request %p while it is on the free list", req)
			}
			th.ExecUser(serve)
			g.Reply(th, req, nil)
			*replies++
		}
	})
	return eng, g, replies
}

// Every pooled request returns to the free list exactly once, whichever
// way the gateway finishes it: a reply, a drop-tail rejection, a
// shed-oldest rejection or a stale-at-dequeue rejection. Each round
// issues one burst and lets the gateway finish it. The pool ends each
// round holding every request it ever made, none twice, and later
// rounds reuse them instead of allocating more.
func TestGatewayPoolReturnsEachRequestOnce(t *testing.T) {
	cases := []struct {
		name  string
		cfg   GatewayConfig
		burst int
		// pool is the peak number of requests in flight at once: the
		// one in service, the queue, and a rejected arrival, which is
		// back on the list before the next arrival takes it.
		pool                 int
		full, stale, replies int64 // per round
	}{
		// 1 served, 2 queued, the other 3 dropped at the tail.
		{"fifo-drop-tail", GatewayConfig{Policy: AdmitFIFO, Capacity: 2}, 6, 4, 3, 0, 3},
		// 1 served, then each arrival past 2 queued sheds the oldest.
		{"lifo-shed-oldest", GatewayConfig{Policy: AdmitLIFO, Capacity: 2}, 6, 4, 3, 0, 3},
		// 1 served; the 3 queued behind it age past the budget and are
		// rejected when the worker dequeues them.
		{"lifo-stale-at-dequeue", GatewayConfig{Policy: AdmitLIFO, Capacity: 8, Budget: sim.Micros(10)}, 4, 4, 0, 3, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, g, replies := poolGateway(t, tc.cfg, sim.Micros(50))
			var first []*request
			for round := 1; round <= 3; round++ {
				at := sim.Time(round) * sim.Millis(1)
				eng.RunUntil(at)
				for i := 0; i < tc.burst; i++ {
					g.Issue(0, ignore)
				}
				eng.RunUntil(at + sim.Micros(500))
				if g.pending.Len() != 0 {
					t.Fatalf("round %d: %d requests still queued", round, g.pending.Len())
				}
				pool := freeList(t, g)
				if len(pool) != tc.pool {
					t.Fatalf("round %d: free list holds %d requests, want %d", round, len(pool), tc.pool)
				}
				if first == nil {
					first = pool
				} else if !sameRequests(pool, first) {
					t.Fatalf("round %d: the pool changed members; requests leaked or were allocated anew", round)
				}
			}
			if g.RejectedFull != 3*tc.full || g.RejectedStale != 3*tc.stale || *replies != 3*tc.replies {
				t.Fatalf("full %d, stale %d, replies %d over 3 rounds; want %d, %d, %d",
					g.RejectedFull, g.RejectedStale, *replies, 3*tc.full, 3*tc.stale, 3*tc.replies)
			}
		})
	}
}

// ignore takes a completion word and drops it.
func ignore(uint64) {}

// sameRequests reports whether a and b hold the same requests in any
// order.
func sameRequests(a, b []*request) bool {
	if len(a) != len(b) {
		return false
	}
	for _, r := range a {
		if !slices.Contains(b, r) {
			return false
		}
	}
	return true
}

// A request whose client gave up on its deadline is still the
// gateway's: while it waits in the queue, Issue must not hand it to the
// client's next request. It returns to the pool only once a worker
// finishes it.
func TestGatewayPoolKeepsAbandonedRequests(t *testing.T) {
	eng, g, _ := poolGateway(t, GatewayConfig{Policy: AdmitFIFO, Capacity: 8}, sim.Micros(50))
	// The blocker occupies the only worker for 50us.
	g.Issue(0, ignore)
	var abandoned, next *request
	// The client gives up on request 1 after 5us, then issues request 2.
	var done uint64
	eng.At(0, func() {
		g.Issue(1, func(v uint64) { done = v })
		abandoned = *g.pending.At(g.pending.Len() - 1)
		eng.At(sim.Micros(5), func() {
			if done != 0 {
				t.Errorf("request completed before its deadline, while the worker was busy")
			}
			g.Issue(2, ignore)
			next = *g.pending.At(g.pending.Len() - 1)
		})
	})
	eng.RunUntil(sim.Micros(10))
	if abandoned == nil || next == nil {
		t.Fatalf("client did not issue both requests")
	}
	if next == abandoned {
		t.Fatalf("the abandoned request was handed out again while still queued")
	}
	if n := len(freeList(t, g)); n != 0 {
		t.Fatalf("free list holds %d requests while all 3 are unfinished", n)
	}
	eng.RunUntil(sim.Millis(1))
	if pool := freeList(t, g); len(pool) != 3 || !slices.Contains(pool, abandoned) {
		t.Fatalf("after the worker finished every request the pool holds %d (abandoned returned: %v), want all 3",
			len(pool), slices.Contains(pool, abandoned))
	}
}
