package sim

import (
	"errors"
	"testing"
)

// TestPendingLiveExcludesAbandonedTimer is the observable fix for the
// stale-timer leak: a wake that lands before a timed wait's deadline
// must leave zero live residue from the abandoned timer event.
func TestPendingLiveExcludesAbandonedTimer(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("sleeper", 0, func(p *Proc) {
		if _, ok := waitTimeout(&q, p, Second); !ok {
			t.Error("sleeper timed out despite early wake")
		}
		// The abandoned deadline timer is still queued (Pending) but
		// must not be live (events.live).
		if e.events.size() != 1 {
			t.Errorf("%d events queued, want 1 (the abandoned timer)", e.events.size())
		}
		if e.events.live() != 0 {
			t.Errorf("live events = %d, want 0 after early wake", e.events.live())
		}
	})
	e.Spawn("waker", 10*Nanosecond, func(p *Proc) {
		q.WakeOne(0, nil)
	})
	e.Run()
	if e.events.size() != 0 || e.events.live() != 0 {
		t.Fatalf("after Run: Pending=%d live events=%d, want 0/0", e.events.size(), e.events.live())
	}
}

// TestPendingLiveCountsLiveTimer: while a timed wait is still in flight
// its deadline timer IS live.
func TestPendingLiveCountsLiveTimer(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("sleeper", 0, func(p *Proc) {
		waitTimeout(&q, p, 100*Nanosecond)
	})
	e.RunUntil(50 * Nanosecond)
	if e.events.live() != 1 {
		t.Fatalf("live events = %d, want 1 (in-flight deadline timer)", e.events.live())
	}
	e.Run()
}

// TestLaneDeadlinesBoundHeap runs a reply-before-deadline storm the
// way the off-machine clients do: each request arms a deadline callback
// a simulated second out and a reply callback a nanosecond out, and
// each checks the request ID, so the reply wins and the deadline finds
// nothing to do. Every deadline loses, yet none is stale: they wait in
// their lane's ring, so the heap holds a few entries however many
// deadlines are pending.
func TestLaneDeadlinesBoundHeap(t *testing.T) {
	const iters = 2000
	e := NewEngine(1)
	var cur, issued uint64
	replies, timeouts, maxHeap, maxRing := 0, 0, 0, 0
	var reply, timeout func(uint64)
	issue := func() {
		issued++
		cur = issued
		e.AtU64(Second, timeout, cur)
		e.AtU64(Nanosecond, reply, cur)
	}
	timeout = func(id uint64) {
		if id == cur {
			timeouts++
		}
	}
	reply = func(id uint64) {
		if id != cur {
			return
		}
		cur = 0
		replies++
		maxHeap = max(maxHeap, e.events.len())
		maxRing = max(maxRing, e.events.rest)
		if replies < iters {
			issue()
		}
	}
	e.At(0, issue)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if replies != iters || timeouts != 0 {
		t.Fatalf("%d replies, %d timeouts; want %d and 0", replies, timeouts, iters)
	}
	if maxHeap > numLanes {
		t.Fatalf("heap peaked at %d entries; the deadlines did not wait on a lane", maxHeap)
	}
	if maxRing < iters-2 {
		t.Fatalf("lane rings peaked at %d entries, want about %d pending deadlines", maxRing, iters)
	}
	if e.events.size() != 0 || e.Now() != Second+(iters-1)*Nanosecond {
		t.Fatalf("after Run: Pending=%d, clock %v; want 0 and the last deadline", e.events.size(), e.Now())
	}
}

// TestRunUntilDoesNotOvershootStaleHead: an abandoned timed-wait deadline
// whose deadline falls inside the RunUntil window must not cause the
// next LIVE event — scheduled after the window — to be delivered early.
// (An earlier engine overshot here: it dropped the stale head and then
// processed whatever came next, even past t.)
func TestRunUntilDoesNotOvershootStaleHead(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var wokeAt, sleptUntil Time
	e.Spawn("a", 0, func(p *Proc) {
		if _, ok := waitTimeout(&q, p, 10); !ok {
			t.Error("should have been woken, not timed out")
		}
		wokeAt = p.eng.now
		p.Sleep(1000) // next live event: t=1001
		sleptUntil = p.eng.now
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
// mixtures of Sleep/Wait/timed waits/WakeOne/wakeAll/At and requires the
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
					out = append(out, p.eng.now)
					switch r.Intn(4) {
					case 0:
						p.Sleep(Time(r.Intn(20)))
					case 1:
						q.WakeOne(Time(r.Intn(3)), nil)
					case 2:
						if q.q.Len() > 0 || r.Intn(2) == 0 {
							waitTimeout(&q, p, Time(r.Intn(30)+1))
						}
					case 3:
						wakeAll(&q)
						p.Sleep(Time(r.Intn(5)))
					}
				}
			})
		}
		// Background wakers so Wait'ers cannot deadlock forever.
		e.At(0, func() {})
		for tick := Time(0); tick < 5000; tick += 50 {
			e.At(tick, func() { wakeAll(&q) })
		}
		e.RunUntil(6000)
		wakeAll(&q)
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
// entries waiting in a lane ring. A proc parks for good while four
// callbacks of one delay wait past the run limit, one at the lane's
// head in the heap and three in its ring; the engine holds live events
// and is not deadlocked until they have run.
func TestTimerLanePendingAndDeadlock(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("a", 0, func(p *Proc) {
		p.PrepareWait()
		p.Wait() // parks for good
	})
	fired := 0
	e.At(Nanosecond, func() {
		for i := 0; i < 4; i++ {
			e.AtU64(Second, func(uint64) { fired++ }, 0)
		}
	})
	e.RunUntil(10 * Nanosecond)
	if e.events.len() != 1 || e.events.rest != 3 || e.events.stale != 0 {
		t.Fatalf("heap %d, ring %d, stale %d; want the lane head and three ring entries, none stale",
			e.events.len(), e.events.rest, e.events.stale)
	}
	if e.events.size() != 4 {
		t.Errorf("%d events queued, want 4: the ring entries count", e.events.size())
	}
	if err := e.Deadlock(); err != nil {
		t.Errorf("Deadlock() = %v with four timers live", err)
	}
	err := e.Run()
	if fired != 4 {
		t.Fatalf("%d timers fired, want 4", fired)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "a" {
		t.Fatalf("Run = %v, want a deadlock naming a", err)
	}
	if e.events.size() != 0 || e.events.stale != 0 {
		t.Errorf("after Run: Pending %d, stale %d; want 0, 0", e.events.size(), e.events.stale)
	}
	e.Close()
}

// TestTimerLaneTagStaysInQueue: a lane's tag never leaves the queue. A
// timer leaving its lane, by the loop's pop or as the head a slow Sleep
// swaps its wakeup for, runs with its own word, the emptied lane is
// disarmed, and the proc's wakeup carries no tag.
func TestTimerLaneTagStaysInQueue(t *testing.T) {
	for _, viaSleep := range []bool{false, true} {
		e := NewEngine(1)
		var got uint64
		e.AtU64(10*Nanosecond, func(v uint64) {
			got = v
			if e.events.lanes[0].armed {
				t.Error("the lane is still armed after its only timer left it")
			}
			if msg := checkQueue(&e.events); msg != "" {
				t.Error(msg)
			}
		}, 42)
		if !e.events.lanes[0].armed {
			t.Fatal("the timer does not wait on a lane")
		}
		var pl payload
		if viaSleep {
			e.Spawn("sleeper", 0, func(p *Proc) {
				p.Sleep(20 * Nanosecond)
				w := p.PrepareWait()
				w.Wake(0, nil)
				pl = p.park(nil)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 42 || pl.timer != 0 {
			t.Errorf("via Sleep %v: timer ran with word %d, wakeup lane tag %d; want 42, no tag", viaSleep, got, pl.timer)
		}
	}
}
