package sim

import (
	"errors"
	"testing"
)

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
// checks compaction keeps the queue proportional to the live event count
// instead of accumulating one abandoned timer per iteration (an engine
// without compaction would peak at ~iters pending events here, because
// every deadline stays queued until it expires a full simulated second
// later). The deadlines share one delay, so they wait on a timer lane,
// and compaction must filter its ring.
func TestStaleTimerPruningBoundsHeap(t *testing.T) {
	const iters = 2000
	e := NewEngine(1)
	var q WaitQueue
	maxPending, maxRing := 0, 0
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
			maxRing = max(maxRing, e.events.rest)
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
	// At most a handful of events are ever live (current deadline timer,
	// the wake in flight, the waker's sleep); with pruning the heap stays
	// within compaction slack of that, nowhere near the iteration count.
	if maxPending > 4*compactMin {
		t.Fatalf("queue peaked at %d pending events; stale timers are not being pruned", maxPending)
	}
	if maxRing < compactMin/2 {
		t.Fatalf("lane rings peaked at %d entries; the deadlines did not wait on a lane", maxRing)
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

// TestTimerLanePendingAndDeadlock: Pending and Deadlock count the
// entries waiting in a lane ring. A live deadline heads the lane past the
// run limit while three stale ones wait in the ring behind it, so the
// stale entries outnumber the heap's; the engine still holds one live
// event and is not deadlocked.
func TestTimerLanePendingAndDeadlock(t *testing.T) {
	e := NewEngine(1)
	var timedOutAt Time
	e.Spawn("a", 0, func(p *Proc) {
		p.PrepareTimedWait(Second)
		if _, completed := p.WaitTimed(); !completed {
			timedOutAt = p.Now()
		}
		p.PrepareWait()
		p.Wait() // parks for good
	})
	e.Spawn("b", Nanosecond, func(p *Proc) {
		for i := 0; i < 3; i++ {
			w := p.PrepareTimedWait(Second)
			w.Wake(0, nil) // completes at once: the deadline is stale
			p.WaitTimed()
		}
	})
	e.RunUntil(10 * Nanosecond)
	if e.events.len() != 1 || e.events.rest != 3 || e.events.stale != 3 {
		t.Fatalf("heap %d, ring %d, stale %d; want a's live lane head and three stale ring entries",
			e.events.len(), e.events.rest, e.events.stale)
	}
	if e.Pending() != 4 {
		t.Errorf("Pending() = %d, want 4: the ring entries count", e.Pending())
	}
	if err := e.Deadlock(); err != nil {
		t.Errorf("Deadlock() = %v with a's deadline live", err)
	}
	err := e.Run()
	if timedOutAt != Second {
		t.Fatalf("a timed out at %v, want %v", timedOutAt, Second)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "a" {
		t.Fatalf("Run = %v, want a deadlock naming a", err)
	}
	if e.Pending() != 0 || e.events.stale != 0 {
		t.Errorf("after Run: Pending %d, stale %d; want 0, 0", e.Pending(), e.events.stale)
	}
	e.Close()
}

// TestTimerLaneTagStaysInQueue: a woken proc never sees a lane's tag in
// its payload, whether its deadline reaches it by a pop or as the head a
// slow Sleep swaps its wakeup for.
func TestTimerLaneTagStaysInQueue(t *testing.T) {
	for _, viaSleep := range []bool{false, true} {
		e := NewEngine(1)
		var pl payload
		e.Spawn("waiter", 0, func(p *Proc) {
			p.PrepareTimedWait(10 * Nanosecond)
			if !e.events.lanes[0].armed {
				t.Error("the deadline does not wait on a lane")
			}
			pl = p.park(nil)
		})
		if viaSleep {
			e.Spawn("sleeper", 0, func(p *Proc) { p.Sleep(20 * Nanosecond) })
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if pl.kind != payTimeout || pl.timer != 0 {
			t.Errorf("via Sleep %v: woken with kind %d, lane tag %d; want the timeout, no tag", viaSleep, pl.kind, pl.timer)
		}
	}
}
