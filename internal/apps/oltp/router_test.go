package oltp

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// scriptedTransport plays back a fixed per-call outcome sequence; past
// the end of the script every call succeeds with out.
type scriptedTransport struct {
	script []error
	out    any
	calls  uint64
}

func (s *scriptedTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	i := int(s.calls)
	s.calls++
	if i < len(s.script) && s.script[i] != nil {
		return nil, s.script[i]
	}
	return s.out, nil
}

// inThread runs fn on a worker thread of a one-machine world and drives
// the engine to completion.
func inThread(t *testing.T, fn func(th *kernel.Thread)) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	p := m.NewProcess("t")
	m.Spawn(p, "t", nil, fn)
	eng.Run()
}

// alwaysErr builds a script that fails every call with err.
func alwaysErr(err error, n int) []error {
	s := make([]error, n)
	for i := range s {
		s[i] = err
	}
	return s
}

func TestRouterFailoverSkipsSuspected(t *testing.T) {
	health := NewReplicaHealth(3)
	rel := &stats.Reliability{}
	a := &scriptedTransport{out: "a"}
	b := &scriptedTransport{out: "b"}
	c := &scriptedTransport{out: "c"}
	r := NewRouter([]Transport{a, b, c}, PolicyFailover, health, rel)
	inThread(t, func(th *kernel.Thread) {
		if out := mustCall(r, th, "op", nil, 8); out != "a" {
			t.Errorf("healthy set routed to %v, want a", out)
		}
		health.Suspect(0, th.Machine().Eng.Now())
		if out := mustCall(r, th, "op", nil, 8); out != "b" {
			t.Errorf("suspected primary still routed, got %v, want b", out)
		}
		if rel.Failovers != 1 {
			t.Errorf("failovers = %d, want 1", rel.Failovers)
		}
		health.Suspect(1, th.Machine().Eng.Now())
		health.Suspect(2, th.Machine().Eng.Now())
		// Fully-suspected set must still make progress.
		if out := mustCall(r, th, "op", nil, 8); out != "a" {
			t.Errorf("fully-suspected set routed to %v, want a (plain rotation)", out)
		}
	})
}

func TestRouterRoundRobinRotates(t *testing.T) {
	a := &scriptedTransport{out: "a"}
	b := &scriptedTransport{out: "b"}
	r := NewRouter([]Transport{a, b}, PolicyRoundRobin, nil, nil)
	inThread(t, func(th *kernel.Thread) {
		got := []any{
			mustCall(r, th, "op", nil, 8), mustCall(r, th, "op", nil, 8),
			mustCall(r, th, "op", nil, 8), mustCall(r, th, "op", nil, 8),
		}
		want := []any{"a", "b", "a", "b"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d routed to %v, want %v (got %v)", i, got[i], want[i], got)
			}
		}
	})
}

func TestRouterFailsOverOnError(t *testing.T) {
	rel := &stats.Reliability{}
	bad := &scriptedTransport{script: alwaysErr(faults.ErrTimeout, 8)}
	good := &scriptedTransport{out: "ok"}
	r := NewRouter([]Transport{bad, good}, PolicyFailover, nil, rel)
	inThread(t, func(th *kernel.Thread) {
		out, err := r.TryCall(th, "op", nil, 8)
		if err != nil || out != "ok" {
			t.Fatalf("TryCall = %v, %v; want ok, nil", out, err)
		}
		if rel.Failovers != 1 {
			t.Errorf("failovers = %d, want 1", rel.Failovers)
		}
	})
}

// TestNestedClassification covers the satellite contract: error classes
// survive the full wrapper chain in every nesting order. ErrRejected
// (from a tripped Breaker) must satisfy errors.Is at the top of any
// stack, and a RemoteError from a deep tier must unwrap via errors.As
// with its cause intact.
func TestNestedClassification(t *testing.T) {
	brCfg := BreakerConfig{Window: 4, Threshold: 0.5, Cooldown: sim.Millis(10), Probes: 1}
	remote := &faults.RemoteError{Tier: "svc2", Err: errTierFault}

	type stack struct {
		name  string
		build func(rel *stats.Reliability, inner ...Transport) Transport
	}
	// Each builder assembles a different nesting order over the same
	// two scripted replicas.
	stacks := []stack{
		{"retrier(router(breaker))", func(rel *stats.Reliability, inner ...Transport) Transport {
			brs := make([]Transport, len(inner))
			for i, tr := range inner {
				brs[i] = NewBreaker(tr, brCfg)
			}
			return &Retrier{Inner: NewRouter(brs, PolicyFailover, nil, rel),
				Policy: faults.RetryPolicy{MaxRetries: 1, Backoff: sim.Micros(1)}, Rel: rel}
		}},
		{"router(retrier(breaker))", func(rel *stats.Reliability, inner ...Transport) Transport {
			reps := make([]Transport, len(inner))
			for i, tr := range inner {
				reps[i] = &Retrier{Inner: NewBreaker(tr, brCfg),
					Policy: faults.RetryPolicy{MaxRetries: 1, Backoff: sim.Micros(1)}, Rel: rel}
			}
			return NewRouter(reps, PolicyFailover, nil, rel)
		}},
		{"breaker(retrier(router))", func(rel *stats.Reliability, inner ...Transport) Transport {
			return NewBreaker(&Retrier{Inner: NewRouter(inner, PolicyFailover, nil, rel),
				Policy: faults.RetryPolicy{MaxRetries: 1, Backoff: sim.Micros(1)}, Rel: rel}, brCfg)
		}},
	}

	for _, st := range stacks {
		st := st
		t.Run(st.name+"/remote-error-unwraps", func(t *testing.T) {
			rel := &stats.Reliability{}
			tr := st.build(rel,
				&scriptedTransport{script: alwaysErr(remote, 64)},
				&scriptedTransport{script: alwaysErr(remote, 64)})
			inThread(t, func(th *kernel.Thread) {
				_, err := tr.TryCall(th, "op", nil, 8)
				if err == nil {
					t.Fatalf("expected residual error")
				}
				var re *faults.RemoteError
				if !errors.As(err, &re) || re.Tier != "svc2" {
					t.Errorf("RemoteError did not unwrap through %s: %v", st.name, err)
				}
				if !errors.Is(err, errTierFault) {
					t.Errorf("cause lost through %s: %v", st.name, err)
				}
				if errors.Is(err, faults.ErrRejected) {
					t.Errorf("injected fault misclassified as rejection through %s", st.name)
				}
			})
		})
		t.Run(st.name+"/rejection-classifies", func(t *testing.T) {
			rel := &stats.Reliability{}
			tr := st.build(rel,
				&scriptedTransport{script: alwaysErr(errTierFault, 64)},
				&scriptedTransport{script: alwaysErr(errTierFault, 64)})
			inThread(t, func(th *kernel.Thread) {
				// Fail enough calls to trip every breaker in the stack,
				// then verify the fast-fail classifies as a rejection.
				var err error
				for i := 0; i < 16; i++ {
					_, err = tr.TryCall(th, "op", nil, 8)
				}
				if !errors.Is(err, ErrBreakerOpen) {
					t.Fatalf("stack %s never reached the open-breaker fast path: %v", st.name, err)
				}
				if !errors.Is(err, faults.ErrRejected) {
					t.Errorf("breaker fast-fail lost its ErrRejected class through %s: %v", st.name, err)
				}
			})
		})
	}
}

// TestRetrierHonorsRejectionThroughRouter pins the composition rule: a
// rejection that survives the whole replica set is non-retryable at the
// Retrier above the Router, so a shedding cluster is not hammered.
func TestRetrierHonorsRejectionThroughRouter(t *testing.T) {
	rel := &stats.Reliability{}
	reject := alwaysErr(ErrBreakerOpen, 8)
	router := NewRouter([]Transport{
		&scriptedTransport{script: reject}, &scriptedTransport{script: reject},
	}, PolicyFailover, nil, nil)
	re := &Retrier{Inner: router,
		Policy: faults.RetryPolicy{MaxRetries: 3, Backoff: sim.Micros(1)}, Rel: rel}
	inThread(t, func(th *kernel.Thread) {
		_, err := re.TryCall(th, "op", nil, 8)
		if !errors.Is(err, faults.ErrRejected) {
			t.Fatalf("err = %v, want rejection", err)
		}
		if rel.Retries != 0 {
			t.Errorf("retrier retried a rejection %d times", rel.Retries)
		}
		if rel.Rejected != 1 {
			t.Errorf("rejected = %d, want 1", rel.Rejected)
		}
	})
}

// TestGatewayRejectionClassifies completes the chain: the admission
// tier's shed errors carry the same ErrRejected class the transports
// use, so one errors.Is covers every rejection source.
func TestGatewayRejectionClassifies(t *testing.T) {
	eng := sim.NewEngine(1)
	gw := NewGateway(DefaultParams(), GatewayConfig{Policy: AdmitFIFO, Capacity: 1})
	var rejected *request
	eng.Spawn("client", 0, func(p *sim.Proc) {
		// No workers: the first submit queues, the second overflows.
		first := &request{done: p.PrepareWait()}
		gw.Submit(first, p.Now())
		second := &request{}
		second.done = p.PrepareWait()
		gw.Submit(second, p.Now())
		rejected = second
	})
	eng.Run()
	if rejected == nil || rejected.err == nil {
		t.Fatalf("queue overflow did not reject")
	}
	if !errors.Is(rejected.err, faults.ErrRejected) {
		t.Errorf("gateway rejection lost its class: %v", rejected.err)
	}
}
