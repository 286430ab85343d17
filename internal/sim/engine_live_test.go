package sim

import "testing"

// TestPendingLiveExcludesAbandonedTimer is the observable fix for the
// WaitTimeout stale-timer leak: a wake that lands before the deadline
// must leave zero live residue from the abandoned timer event.
func TestPendingLiveExcludesAbandonedTimer(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("sleeper", 0, func(p *Proc) {
		if _, ok := q.WaitTimeout(p, Second); !ok {
			t.Error("sleeper timed out despite early wake")
		}
		// The abandoned deadline timer is still queued (Pending) but
		// must not be live (events.live).
		if e.Pending() != 1 {
			t.Errorf("Pending() = %d, want 1 (the abandoned timer)", e.Pending())
		}
		if e.events.live() != 0 {
			t.Errorf("live events = %d, want 0 after early wake", e.events.live())
		}
	})
	e.Spawn("waker", 10*Nanosecond, func(p *Proc) {
		q.WakeOne(0, nil)
	})
	e.Run()
	if e.Pending() != 0 || e.events.live() != 0 {
		t.Fatalf("after Run: Pending=%d live events=%d, want 0/0", e.Pending(), e.events.live())
	}
}

// TestPendingLiveCountsLiveTimer: while a WaitTimeout is still in flight
// its deadline timer IS live.
func TestPendingLiveCountsLiveTimer(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("sleeper", 0, func(p *Proc) {
		q.WaitTimeout(p, 100*Nanosecond)
	})
	e.RunUntil(50 * Nanosecond)
	if e.events.live() != 1 {
		t.Fatalf("live events = %d, want 1 (in-flight deadline timer)", e.events.live())
	}
	e.Run()
}

// TestStaleTimerPruningBoundsHeap runs a wake-before-timeout storm and
// checks compaction keeps the heap proportional to the live event count
// instead of accumulating one abandoned timer per iteration (the pre-PR
// engine would peak at ~iters pending events here, because every deadline
// sat in the heap until it expired a full simulated second later).
func TestStaleTimerPruningBoundsHeap(t *testing.T) {
	const iters = 2000
	e := NewEngine(1)
	var q WaitQueue
	maxPending := 0
	e.Spawn("sleeper", 0, func(p *Proc) {
		for i := 0; i < iters; i++ {
			if _, ok := q.WaitTimeout(p, Second); !ok {
				t.Error("unexpected timeout")
				return
			}
		}
	})
	e.Spawn("waker", Nanosecond, func(p *Proc) {
		for i := 0; i < iters; i++ {
			q.WakeOne(0, nil)
			if pend := e.Pending(); pend > maxPending {
				maxPending = pend
			}
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
	// At most a handful of events are ever live (current deadline timer,
	// the wake in flight, the waker's sleep); with pruning the heap stays
	// within compaction slack of that, nowhere near the iteration count.
	if maxPending > 4*compactMin {
		t.Fatalf("heap peaked at %d pending events; stale timers are not being pruned", maxPending)
	}
	if e.Pending() != 0 || e.events.live() != 0 {
		t.Fatalf("after Run: Pending=%d live events=%d, want 0/0", e.Pending(), e.events.live())
	}
}

// TestRunUntilDoesNotOvershootStaleHead: an abandoned WaitTimeout timer
// whose deadline falls inside the RunUntil window must not cause the
// next LIVE event — scheduled after the window — to be delivered early.
// (An earlier engine overshot here: it dropped the stale head and then
// processed whatever came next, even past t.)
func TestRunUntilDoesNotOvershootStaleHead(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var wokeAt, sleptUntil Time
	e.Spawn("a", 0, func(p *Proc) {
		if _, ok := q.WaitTimeout(p, 10); !ok {
			t.Error("should have been woken, not timed out")
		}
		wokeAt = p.Now()
		p.Sleep(1000) // next live event: t=1001
		sleptUntil = p.Now()
	})
	e.Spawn("waker", 1, func(p *Proc) {
		q.WakeOne(0, nil) // abandons a's deadline timer at t=10
	})
	e.RunUntil(500)
	if wokeAt != 1 {
		t.Fatalf("woken at %v, want 1", wokeAt)
	}
	if e.Now() != 500 {
		t.Fatalf("Now() = %v after RunUntil(500), want 500 (overshot past t)", e.Now())
	}
	if sleptUntil != 0 {
		t.Fatalf("the t=1001 wakeup ran inside RunUntil(500)")
	}
	e.Run()
	if sleptUntil != 1001 {
		t.Fatalf("sleep ended at %v, want 1001", sleptUntil)
	}
}

// TestRandomScheduleDeterminism drives the engine through seeded random
// mixtures of Sleep/Wait/WaitTimeout/WakeOne/WakeAll/At and requires the
// full dispatch trace — (time, proc, payload) triples — to be identical
// across runs. Combined with the golden digests in internal/experiments
// (captured from the pre-PR container/heap engine), this pins the new
// event path to the old ordering semantics.
func TestRandomScheduleDeterminism(t *testing.T) {
	trace := func(seed uint64) []Time {
		e := NewEngine(seed)
		var q WaitQueue
		var out []Time
		for i := 0; i < 4; i++ {
			e.Spawn("w", Time(i), func(p *Proc) {
				r := e.Rand()
				for step := 0; step < 200; step++ {
					out = append(out, p.Now())
					switch r.Intn(4) {
					case 0:
						p.Sleep(Time(r.Intn(20)))
					case 1:
						q.WakeOne(Time(r.Intn(3)), nil)
					case 2:
						if q.Len() > 0 || r.Intn(2) == 0 {
							q.WaitTimeout(p, Time(r.Intn(30)+1))
						}
					case 3:
						q.WakeAll(0, nil)
						p.Sleep(Time(r.Intn(5)))
					}
				}
			})
		}
		// Background wakers so Wait'ers cannot deadlock forever.
		e.At(0, func() {})
		for tick := Time(0); tick < 5000; tick += 50 {
			e.At(tick, func() { q.WakeAll(0, nil) })
		}
		e.RunUntil(6000)
		q.WakeAll(0, nil)
		e.Run()
		return out
	}
	for seed := uint64(1); seed <= 5; seed++ {
		first := trace(seed)
		second := trace(seed)
		if len(first) != len(second) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("seed %d: traces diverge at step %d: %v vs %v", seed, i, first[i], second[i])
			}
		}
	}
}
