package oltp

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// errTierFault stands in for any tier failure that is neither a timeout
// nor a shed.
var errTierFault = errors.New("tier fault")

// flakyTransport fails while broken, succeeds otherwise, and counts
// calls that actually reach it.
type flakyTransport struct {
	broken  bool
	reached int
}

func (f *flakyTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	f.reached++
	t.SleepFor(sim.Micros(5))
	if f.broken {
		return nil, fmt.Errorf("flaky: %w", errTierFault)
	}
	return payload, nil
}

// onThread runs fn on a kernel thread and drives the engine dry.
func onThread(eng *sim.Engine, m *kernel.Machine, fn func(t *kernel.Thread)) {
	p := m.NewProcess("test")
	m.Spawn(p, "t", nil, fn)
	eng.Run()
}

// The breaker trips once the closed window crosses the error-rate
// threshold, fast-fails during the cooldown, probes after it, and
// closes again when the downstream has healed.
func TestBreakerLifecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	inner := &flakyTransport{broken: true}
	br := NewBreaker(inner, BreakerConfig{Window: 8, Threshold: 0.5, Cooldown: sim.Micros(100), Probes: 2})

	onThread(eng, m, func(th *kernel.Thread) {
		// Fill the window with failures: the 8th call trips the breaker.
		for i := 0; i < 8; i++ {
			if _, err := br.TryCall(th, "hop", nil, 8); err == nil {
				t.Errorf("call %d succeeded against a broken downstream", i)
			}
		}
		if br.Trips() != 1 {
			t.Errorf("trips = %d after a full failing window, want 1", br.Trips())
		}
		reached := inner.reached

		// During cooldown every call fast-fails without touching inner.
		if _, err := br.TryCall(th, "hop", nil, 8); !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("open breaker returned %v, want ErrBreakerOpen", err)
		}
		if !errors.Is(ErrBreakerOpen, faults.ErrRejected) {
			t.Errorf("ErrBreakerOpen must wrap faults.ErrRejected")
		}
		if inner.reached != reached {
			t.Errorf("fast-fail reached the inner transport")
		}
		if br.FastFails() == 0 {
			t.Errorf("fast-fails not counted")
		}

		// Heal the downstream, wait out the cooldown: two probes succeed
		// and the breaker closes.
		inner.broken = false
		th.SleepFor(sim.Micros(200))
		for i := 0; i < 2; i++ {
			if _, err := br.TryCall(th, "hop", nil, 8); err != nil {
				t.Errorf("probe %d failed: %v", i, err)
			}
		}
		if br.state != brClosed {
			t.Errorf("state = %d after successful probes, want closed", br.state)
		}
		// Closed again: calls flow normally.
		if _, err := br.TryCall(th, "hop", nil, 8); err != nil {
			t.Errorf("post-recovery call failed: %v", err)
		}
	})
}

// A failed half-open probe re-opens the breaker immediately.
func TestBreakerProbeFailureReopens(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	inner := &flakyTransport{broken: true}
	br := NewBreaker(inner, BreakerConfig{Window: 4, Threshold: 0.5, Cooldown: sim.Micros(50), Probes: 2})

	onThread(eng, m, func(th *kernel.Thread) {
		for i := 0; i < 4; i++ {
			br.TryCall(th, "hop", nil, 8)
		}
		th.SleepFor(sim.Micros(100))
		if _, err := br.TryCall(th, "hop", nil, 8); err == nil {
			t.Errorf("probe against a still-broken downstream succeeded")
		}
		if br.state != brOpen {
			t.Errorf("state = %d after failed probe, want open", br.state)
		}
		if br.Trips() != 2 {
			t.Errorf("trips = %d, want 2", br.Trips())
		}
	})
}

// Bounded FIFO rejects the overflow instead of queueing it.
func TestGatewayFIFODropTail(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	prm := DefaultParams()
	gw := NewGateway(eng, prm, GatewayConfig{Policy: AdmitFIFO, Capacity: 4})
	p := m.NewProcess("gw")
	m.Spawn(p, "worker", nil, func(t *kernel.Thread) {
		for {
			req := gw.Recv(t)
			t.ExecUser(sim.Micros(100)) // slow server
			gw.Reply(t, req, nil)
		}
	})
	var rejected, completed int
	req := &request{}
	submit := func() {
		req.started = eng.Now()
		gw.Submit(req)
	}
	req.done = func(v uint64) {
		switch v & 3 {
		case respRejected:
			rejected++
		case respOK:
			completed++
		default:
			t.Errorf("completion word %#x is neither a success nor a rejection", v)
		}
		// Open-loop-ish: fire the next request quickly regardless.
		if rejected+completed < 40 {
			eng.At(sim.Micros(1), submit)
		}
	}
	eng.At(0, submit)
	// One closed-loop client can't overflow a queue; add a flood of
	// one-shot submitters that never wait.
	for f := 0; f < 30; f++ {
		eng.At(sim.Micros(2), func() { gw.Submit(&request{started: eng.Now(), done: ignore}) })
	}
	eng.RunUntil(sim.Millis(20))
	if gw.RejectedFull == 0 {
		t.Fatalf("no drop-tail rejections despite a 30-deep flood into capacity 4")
	}
	if gw.pending.Len() > 4 {
		t.Fatalf("queue grew to %d past capacity 4", gw.pending.Len())
	}
	if gw.Admitted == 0 {
		t.Fatalf("nothing admitted")
	}
}

// LIFO serves the newest first and sheds the oldest, both on overflow
// and (via Budget) at dequeue.
func TestGatewayLIFOFreshness(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	prm := DefaultParams()
	gw := NewGateway(eng, prm, GatewayConfig{Policy: AdmitLIFO, Capacity: 8, Budget: sim.Micros(200)})
	var servedAges []sim.Time
	p := m.NewProcess("gw")
	m.Spawn(p, "worker", nil, func(t *kernel.Thread) {
		for {
			req := gw.Recv(t)
			servedAges = append(servedAges, t.Machine().Eng.Now()-req.started)
			t.ExecUser(sim.Micros(150))
			gw.Reply(t, req, nil)
		}
	})
	for f := 0; f < 40; f++ {
		eng.At(sim.Time(f)*sim.Micros(10), func() { gw.Submit(&request{started: eng.Now(), done: ignore}) })
	}
	eng.RunUntil(sim.Millis(10))
	if gw.RejectedStale == 0 && gw.RejectedFull == 0 {
		t.Fatalf("overloaded LIFO gateway shed nothing")
	}
	// Every served request must be within the freshness budget at
	// dequeue (service adds on top, but dequeue-time age is bounded).
	for _, age := range servedAges {
		if age > sim.Micros(200) {
			t.Fatalf("served a request %v old, past the 200us budget", age)
		}
	}
}

// A full AdmitLIFO queue sheds its oldest entry as rejected to admit
// the newest, and Recv serves the newest first.
func TestGatewayLIFOOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	gw := NewGateway(eng, DefaultParams(), GatewayConfig{Policy: AdmitLIFO, Capacity: 3})
	var words []uint64
	reqs := make([]*request, 5)
	for i := range reqs {
		reqs[i] = &request{id: uint64(i), done: func(v uint64) { words = append(words, v) }}
		gw.Submit(reqs[i])
	}
	eng.RunUntil(0)
	if want := []uint64{0<<2 | respRejected, 1<<2 | respRejected}; !slices.Equal(words, want) {
		t.Errorf("completion words %v, want %v: the two oldest shed", words, want)
	}
	var got []int
	onThread(eng, m, func(t *kernel.Thread) {
		for gw.pending.Len() > 0 {
			got = append(got, slices.Index(reqs, gw.Recv(t)))
		}
	})
	if want := []int{4, 3, 2}; !slices.Equal(got, want) {
		t.Fatalf("Recv served requests %v, want %v (newest first)", got, want)
	}
}

// The token bucket admits at its configured rate and rejects the rest
// before they queue.
func TestGatewayTokenBucket(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	prm := DefaultParams()
	// 100k tokens/s = one admit per 10us; flood at one submit per 2us.
	gw := NewGateway(eng, prm, GatewayConfig{Policy: AdmitToken, Capacity: 64, TokenRate: 100_000, TokenBurst: 1})
	p := m.NewProcess("gw")
	m.Spawn(p, "worker", nil, func(t *kernel.Thread) {
		for {
			req := gw.Recv(t)
			gw.Reply(t, req, nil)
		}
	})
	for i := 0; i < 500; i++ {
		eng.At(sim.Time(i)*sim.Micros(2), func() { gw.Submit(&request{started: eng.Now(), done: ignore}) })
	}
	eng.RunUntil(sim.Millis(2))
	if gw.RejectedToken == 0 {
		t.Fatalf("no token rejections flooding 5x the metered rate")
	}
	// 1ms of runway at 100k/s ≈ 100 admits (+burst); allow slack.
	if gw.Admitted < 80 || gw.Admitted > 150 {
		t.Fatalf("admitted %d, want ~100 (token-metered)", gw.Admitted)
	}
}

// Smoke: the open-loop runner is deterministic and produces a sane
// in-window accounting identity under light load.
func TestRunOpenLoopDeterministic(t *testing.T) {
	cfg := OpenLoopConfig{
		ChainFaultsConfig: ChainFaultsConfig{
			ChainConfig: ChainConfig{
				Mode: ModeDIPC, Depth: 2, Threads: 4, CPUs: 2, Work: sim.Micros(5),
				Warmup: sim.Millis(2), Window: sim.Millis(10), Seed: 42,
			},
		},
		MeanGap:  sim.Micros(100),
		Sessions: 64, Requests: 2,
		Deadline: sim.Millis(2),
		Gateway:  GatewayConfig{Policy: AdmitFIFO, Capacity: 32},
	}
	a := RunOpenLoop(cfg)
	b := RunOpenLoop(cfg)
	if a.Rel != b.Rel || a.Offered != b.Offered || a.P99 != b.P99 || a.Balked != b.Balked {
		t.Fatalf("open-loop runs diverged:\n%+v\n%+v", a.Rel, b.Rel)
	}
	if a.Rel.OpsOK == 0 {
		t.Fatalf("no successful ops under light load")
	}
	if a.Rel.OpsOK+a.Rel.OpsFailed > a.Offered+int64(cfg.Sessions) {
		t.Fatalf("completions %d exceed offered %d", a.Rel.OpsOK+a.Rel.OpsFailed, a.Offered)
	}
	if a.P50 <= 0 || a.P99 < a.P50 || a.P999 < a.P99 {
		t.Fatalf("percentiles not ordered: p50=%v p99=%v p999=%v", a.P50, a.P99, a.P999)
	}
}

// Overload sanity: past saturation the unbounded gateway's tail
// explodes relative to the light-load tail, and a bounded policy sheds.
func TestRunOpenLoopOverloadSheds(t *testing.T) {
	base := OpenLoopConfig{
		ChainFaultsConfig: ChainFaultsConfig{
			ChainConfig: ChainConfig{
				Mode: ModeDIPC, Depth: 2, Threads: 4, CPUs: 2, Work: sim.Micros(10),
				Warmup: sim.Millis(2), Window: sim.Millis(10), Seed: 7,
			},
		},
		// ~3 tiers x 10us work on 2 CPUs → capacity well under one
		// request per 10us: this offered load is deep overload.
		MeanGap:  sim.Micros(10),
		Sessions: 512, Requests: 2,
		Deadline: sim.Millis(1),
	}

	unbounded := base
	unbounded.Gateway = GatewayConfig{Policy: AdmitNone}
	ru := RunOpenLoop(unbounded)

	bounded := base
	bounded.Gateway = GatewayConfig{Policy: AdmitFIFO, Capacity: 16}
	rb := RunOpenLoop(bounded)

	if ru.Rel.Timeouts == 0 {
		t.Fatalf("unbounded gateway under deep overload produced no client timeouts")
	}
	if rb.RejFull == 0 {
		t.Fatalf("bounded gateway under deep overload rejected nothing")
	}
	if rb.Goodput <= ru.Goodput {
		t.Fatalf("bounded goodput %.0f <= unbounded %.0f under overload; shedding should protect goodput",
			rb.Goodput, ru.Goodput)
	}
}

// The storm wiring end to end: a breaker on a killed tier fast-fails
// instead of timing out.
func TestRunOpenLoopBreakerStorm(t *testing.T) {
	cfg := OpenLoopConfig{
		ChainFaultsConfig: ChainFaultsConfig{
			ChainConfig: ChainConfig{
				Mode: ModeDIPC, Depth: 2, Threads: 4, CPUs: 2, Work: sim.Micros(5),
				Warmup: sim.Millis(2), Window: sim.Millis(10), Seed: 11,
			},
			Plan: &faults.Plan{Events: []faults.Event{
				{At: sim.Millis(4), Kind: faults.KillProc, Target: "svc2"},
				{At: sim.Millis(8), Kind: faults.RestartProc, Target: "svc2"},
			}},
			Retry: faults.RetryPolicy{Deadline: sim.Micros(200), MaxRetries: 1},
		},
		MeanGap:  sim.Micros(100),
		Sessions: 64, Requests: 2,
		Deadline: sim.Millis(1),
		Gateway:  GatewayConfig{Policy: AdmitFIFO, Capacity: 32},
		Breaker:  &BreakerConfig{Window: 8, Threshold: 0.5, Cooldown: sim.Micros(500), Probes: 2},
	}
	r := RunOpenLoop(cfg)
	if r.Trips == 0 {
		t.Fatalf("breaker never tripped across a tier crash")
	}
	if r.FastFails == 0 {
		t.Fatalf("no fast-fails while the tier was down")
	}
	if r.Rel.OpsOK == 0 {
		t.Fatalf("no successes before/after the crash window")
	}
}
