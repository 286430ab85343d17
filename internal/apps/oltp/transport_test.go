package oltp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestDirectTransportCountsCalls(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	p := m.NewProcess("p")
	tr := &DirectTransport{H: func(th *kernel.Thread, op string, payload any) (any, int) {
		return payload.(int) * 2, 8
	}}
	s := &Stack{}
	var got any
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		got = s.call(tr, th, "double", 21, 8)
	})
	eng.Run()
	if got != 42 || s.calls != 1 {
		t.Fatalf("got %v, calls %d", got, s.calls)
	}
}

func TestSockTransportRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	prm := DefaultParams()
	tr := NewSockTransport(prm, func(th *kernel.Thread, op string, payload any) (any, int) {
		if op != "q" {
			t.Errorf("op = %q", op)
		}
		return payload.(string) + "-reply", 64
	})
	m.Spawn(ps, "worker", m.CPUs[1], tr.Worker)
	s := &Stack{}
	var got any
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		got = s.call(tr, th, "q", "hello", 128)
		got = s.call(tr, th, "q", got, 128)
	})
	eng.Run()
	if got != "hello-reply-reply" {
		t.Fatalf("got %v", got)
	}
	if s.calls != 2 {
		t.Fatalf("calls = %d", s.calls)
	}
}

func TestSockTransportPerThreadReplySockets(t *testing.T) {
	// Two concurrent callers must not steal each other's replies. The
	// slow caller makes back-to-back calls, each reusing its request
	// record, while the fast one's calls overtake them; every call must
	// get its own payload back.
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 4)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	prm := DefaultParams()
	tr := NewSockTransport(prm, func(th *kernel.Thread, op string, payload any) (any, int) {
		th.SleepFor(sim.Time(payload.(int)) * sim.Microsecond) // reorder replies
		return payload, 32
	})
	for i := 0; i < 2; i++ {
		m.Spawn(ps, "worker", nil, tr.Worker)
	}
	var results [2][]any
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(pc, "client", nil, func(th *kernel.Thread) {
			// Client 0 asks for slow replies, client 1 for fast ones.
			for k := 0; k < 4+4*i; k++ {
				results[i] = append(results[i], mustCall(tr, th, "q", 100-90*i+k, 64))
			}
		})
	}
	eng.Run()
	for i, got := range results {
		if len(got) != 4+4*i {
			t.Fatalf("client %d got %d replies, want %d", i, len(got), 4+4*i)
		}
		for k, r := range got {
			if r != 100-90*i+k {
				t.Fatalf("replies crossed: client %d call %d got %v, want %d", i, k, r, 100-90*i+k)
			}
		}
	}
}

func TestDIPCTransportNestedCallsKeepTheirResults(t *testing.T) {
	// One thread calls through two DIPCTransports, the inner call made
	// from inside the outer one's entry. Each transport reuses the
	// thread's argument record for its own calls, so the inner result
	// must not overwrite the outer call's, on the first call or later.
	eng := sim.NewEngine(1)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	rt := core.NewRuntime(m)
	front, mid, back := rt.NewProcess("front"), rt.NewProcess("mid"), rt.NewProcess("back")
	sig := core.Signature{InRegs: 2, OutRegs: 1}
	publish := func(p *kernel.Process, path string, h Handler, imp func(th *kernel.Thread)) {
		m.Spawn(p, path+"-init", nil, func(th *kernel.Thread) {
			mustEnter(rt, th)
			if imp != nil {
				imp(th)
			}
			eh, err := rt.EntryRegister(th, rt.DomDefault(th), []core.EntryDesc{{Name: "q", Fn: handlerEntry(h, "q"), Sig: sig}})
			if err != nil {
				panic(err)
			}
			if err := rt.Publish(th, path, eh); err != nil {
				panic(err)
			}
		})
		eng.Run()
	}
	dial := func(th *kernel.Thread, path string) *DIPCTransport {
		ents, err := rt.MustImport(th, path, []core.EntryDesc{{Name: "q", Sig: sig}})
		if err != nil {
			panic(err)
		}
		return NewDIPCTransport(map[string]*core.ImportedEntry{"q": ents[0]})
	}

	publish(back, "/run/back", func(th *kernel.Thread, op string, payload any) (any, int) {
		return payload.(int) * 10, 8
	}, nil)
	var inner *DIPCTransport
	var innerGot []any
	publish(mid, "/run/mid", func(th *kernel.Thread, op string, payload any) (any, int) {
		innerGot = append(innerGot, mustCall(inner, th, "q", payload.(int)+1, 8))
		return payload.(int) + 1000, 8
	}, func(th *kernel.Thread) { inner = dial(th, "/run/back") })

	var outerGot []any
	m.Spawn(front, "caller", nil, func(th *kernel.Thread) {
		mustEnter(rt, th)
		outer := dial(th, "/run/mid")
		for k := 0; k < 3; k++ {
			outerGot = append(outerGot, mustCall(outer, th, "q", k, 8))
		}
	})
	eng.Run()
	for k := 0; k < 3; k++ {
		if len(outerGot) != 3 || len(innerGot) != 3 || outerGot[k] != k+1000 || innerGot[k] != (k+1)*10 {
			t.Fatalf("nested results crossed: outer %v, inner %v", outerGot, innerGot)
		}
	}
}

func TestWorkloadEstimateMatchesHandlers(t *testing.T) {
	// The static estimate should track what the handlers actually do.
	est := callsPerOpEstimate(DefaultParams())
	if est < 25 || est > 60 {
		t.Fatalf("estimate = %.1f, outside the designed range", est)
	}
}
