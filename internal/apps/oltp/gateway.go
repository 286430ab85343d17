package oltp

import (
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Admission-control tier: the HTTP front door. Clients live off-machine
// (the DVDStore driver host), so submission costs nothing locally; the
// front tier's accept/read/write syscalls are charged in full. A closed
// loop, whose driver never outruns the server, takes the unbounded
// AdmitNone queue; under open-loop overload that queue is exactly the
// failure mode (every queued request ages past its deadline, goodput
// collapses while the server stays 100% busy). Gateway bounds the queue
// and sheds load by policy, reporting rejections in-band as errors
// wrapping faults.ErrRejected so clients and stats can tell "shed
// cheaply at the door" from "failed expensively inside".

// AdmitPolicy selects how the gateway sheds load when the admission
// queue is full.
type AdmitPolicy int

const (
	// AdmitNone is the unbounded baseline: never reject, queue forever.
	// The closed-loop runners use it; open-loop it exhibits the overload
	// collapse.
	AdmitNone AdmitPolicy = iota
	// AdmitFIFO is a bounded drop-tail queue: an arrival finding the
	// queue full is rejected immediately; service order is FIFO.
	AdmitFIFO
	// AdmitLIFO is adaptive LIFO with deadline-aware early rejection:
	// workers serve the newest request first (it has the most deadline
	// budget left), requests older than Budget are rejected at dequeue
	// instead of burning service time on a response nobody is waiting
	// for, and a full queue sheds its oldest entry to admit the newest.
	AdmitLIFO
	// AdmitToken meters admission with a token bucket (Rate per second,
	// up to Burst banked) in front of a bounded FIFO: overload is
	// rejected at a configured rate ceiling before it ever queues.
	AdmitToken
)

// String names the policy.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitNone:
		return "none"
	case AdmitFIFO:
		return "fifo"
	case AdmitLIFO:
		return "lifo"
	case AdmitToken:
		return "token"
	default:
		return "unknown"
	}
}

// GatewayConfig parameterizes the admission tier.
type GatewayConfig struct {
	Policy AdmitPolicy
	// Capacity bounds the admission queue (ignored by AdmitNone;
	// defaults to 64 elsewhere).
	Capacity int
	// Budget is the max queueing age a request may reach before the
	// deadline-aware policies give up on it (AdmitLIFO only; 0 disables
	// early rejection).
	Budget sim.Time
	// TokenRate is admitted requests per second and TokenBurst the
	// bucket depth (AdmitToken only; defaults 100k/s and Capacity).
	TokenRate  float64
	TokenBurst int
}

// Rejection sentinels are preconstructed so the hot shed path performs
// no allocation per rejected request.
var (
	errGatewayFull  error = &faults.Error{Msg: "oltp: admission queue full", Err: faults.ErrRejected}
	errGatewayStale error = &faults.Error{Msg: "oltp: deadline budget exhausted in queue", Err: faults.ErrRejected}
	errGatewayToken error = &faults.Error{Msg: "oltp: token bucket empty", Err: faults.ErrRejected}
)

// Gateway is the bounded, policy-governed front door. All state belongs
// to the owning machine's engine; clients submitting and workers
// receiving must run on that engine.
type Gateway struct {
	prm     *Params
	cfg     GatewayConfig
	pending sim.Queue[*request]
	waiters kernel.TQueue
	// free heads the list of finished pooled requests, linked through
	// request.next, that Issue reuses.
	free *request

	// Token bucket: tokens accumulate continuously on the sim clock.
	tokens   float64
	tokensAt sim.Time

	// Shed accounting, by reason.
	Admitted      int64
	RejectedFull  int64
	RejectedStale int64
	RejectedToken int64
}

// NewGateway builds the admission tier.
func NewGateway(prm *Params, cfg GatewayConfig) *Gateway {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.TokenRate <= 0 {
		cfg.TokenRate = 100_000
	}
	if cfg.TokenBurst <= 0 {
		cfg.TokenBurst = cfg.Capacity
	}
	g := &Gateway{prm: prm, cfg: cfg}
	g.tokens = float64(cfg.TokenBurst)
	return g
}

// Issue submits a pooled request started now whose completion wakes
// done — the open-loop client's path. The client learns the outcome from
// the wake alone, so the gateway takes the request back when it
// finishes it, even one whose client has already timed out and left.
//
//dipcvet:noalloc
func (g *Gateway) Issue(now sim.Time, done sim.Waiter) {
	req := g.free
	if req != nil {
		g.free, req.next = req.next, nil
	} else {
		//dipcvet:alloc-ok first use: the pool grows to the peak number of requests in flight
		req = &request{pooled: true}
	}
	req.started, req.done, req.err = now, done, nil
	g.Submit(req, now)
}

// finish reports err to req's client and returns a pooled request to
// the free list; the client must not read a pooled request after its
// wake.
//
//dipcvet:noalloc
func (g *Gateway) finish(req *request, err error) {
	req.err = err
	req.done.Wake(0, err)
	if req.pooled {
		req.next, g.free = g.free, req
	}
}

// reject reports the outcome to the client without charging any server
// time: the cheap shed is the whole point of admission control. (The
// TCP reset that carries it is client-side cost, off-machine.)
//
//dipcvet:noalloc
func (g *Gateway) reject(req *request, err error) {
	g.finish(req, err)
}

// Submit delivers a client request at simulated time now (called from a
// client sim.Proc, off-machine: no local cost). A rejected request
// is completed immediately with an error wrapping faults.ErrRejected.
//
//dipcvet:noalloc
func (g *Gateway) Submit(req *request, now sim.Time) {
	if g.cfg.Policy == AdmitToken {
		g.refill(now)
		if g.tokens < 1 {
			g.RejectedToken++
			g.reject(req, errGatewayToken)
			return
		}
		g.tokens--
	}
	// Direct handoff to an idle worker bypasses the queue entirely — an
	// idle server never rejects.
	if g.waiters.WakeOne(req, nil) {
		g.Admitted++
		return
	}
	if g.cfg.Policy != AdmitNone && g.pending.Len() >= g.cfg.Capacity {
		if g.cfg.Policy == AdmitLIFO {
			// Shed the oldest: it has the least deadline budget left, so
			// it is the entry least worth serving.
			old := g.pending.PopFront()
			g.pending.PushBack(req)
			g.Admitted++
			g.RejectedFull++
			g.reject(old, errGatewayFull)
			return
		}
		g.RejectedFull++
		g.reject(req, errGatewayFull)
		return
	}
	g.Admitted++
	g.pending.PushBack(req)
}

// refill accrues tokens for the sim time elapsed since the last refill.
func (g *Gateway) refill(now sim.Time) {
	if now <= g.tokensAt {
		return
	}
	g.tokens += float64(now-g.tokensAt) * g.cfg.TokenRate / float64(sim.Second)
	if max := float64(g.cfg.TokenBurst); g.tokens > max {
		g.tokens = max
	}
	g.tokensAt = now
}

// Recv blocks a gateway worker until an admitted, still-fresh request
// is available, charging the accept+read path once per received
// request. Stale queue entries (older than Budget under AdmitLIFO) are
// rejected here, at dequeue: the decisive moment is when a worker would
// otherwise commit service time to them.
func (g *Gateway) Recv(t *kernel.Thread) *request {
	var req *request
	t.Syscall(func() {
		p := t.Machine().P
		t.Exec(p.SockKernel+p.KernelCopy(g.prm.IngressReq), stats.BlockKernel)
		for {
			req = g.pop()
			if req == nil {
				req = g.waiters.BlockOn(t).(*request)
				return
			}
			if g.cfg.Policy == AdmitLIFO && g.cfg.Budget > 0 &&
				t.Machine().Eng.Now()-req.started > g.cfg.Budget {
				g.RejectedStale++
				g.reject(req, errGatewayStale)
				continue
			}
			return
		}
	})
	return req
}

// pop removes the next request per policy, nil when the queue is empty.
func (g *Gateway) pop() *request {
	switch {
	case g.pending.Len() == 0:
		return nil
	case g.cfg.Policy == AdmitLIFO:
		return g.pending.PopBack()
	default:
		return g.pending.PopFront()
	}
}

// Reply sends the response (or the in-band failure) back to the client,
// charging the write path.
//
//dipcvet:noalloc
func (g *Gateway) Reply(t *kernel.Thread, req *request, err error) {
	g.write(t)
	g.finish(req, err)
}

// write charges the response's write syscall on t.
func (g *Gateway) write(t *kernel.Thread) {
	t.Syscall(func() {
		p := t.Machine().P
		t.Exec(p.SockKernel+p.KernelCopy(g.prm.IngressResp), stats.BlockKernel)
	})
}
