package sim

import "testing"

// A timed wait is built from one Waiter armed twice: the completion
// wake, and a deadline wake carrying timeoutMark that is queued when
// the wait is armed. Whichever the loop delivers first wins; the other
// is a stale wake for a generation the proc has left behind, and the
// engine drops it. (Off-machine clients race a deadline against a
// reply the same way, as two callbacks matched on a request ID.)

// timeoutMark is the deadline wake's payload. It has no size, so
// boxing it allocates nothing.
type timeoutMark struct{}

// prepareTimedWait arms p for a wait bounded by d and returns the
// completion handle.
func prepareTimedWait(p *Proc, d Time) Waiter {
	w := p.PrepareWait()
	w.Wake(d, timeoutMark{})
	return w
}

// waitTimed parks until the wait armed by prepareTimedWait resolves.
// completed is false if the deadline fired first.
func waitTimed(p *Proc) (v any, completed bool) {
	if v = p.Wait(); v == (timeoutMark{}) {
		return nil, false
	}
	return v, true
}

// waitTimeout parks p on q for at most d; false reports the deadline.
// A timed-out waiter stays queued, spent, and the wake paths skip it.
func waitTimeout(q *WaitQueue, p *Proc, d Time) (any, bool) {
	w := prepareTimedWait(p, d)
	q.q.PushBack(w)
	return waitTimed(p)
}

// Completion before the deadline: the timed wait returns the completion
// payload and the abandoned deadline timer never fires.
func TestTimedWaitCompletes(t *testing.T) {
	eng := NewEngine(1)
	var got any
	var completed bool
	var end Time
	eng.Spawn("sleeper", 0, func(p *Proc) {
		w := prepareTimedWait(p, Micros(100))
		w.Wake(Micros(10), "done")
		got, completed = waitTimed(p)
		end = p.eng.now
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatalf("wait timed out; want completion")
	}
	if got != "done" {
		t.Fatalf("payload = %v, want done", got)
	}
	if end != Micros(10) {
		t.Fatalf("woke at %v, want 10us", end)
	}
}

// Deadline first: completed is false, the proc resumes exactly at the
// deadline, and a late completion wake is stale and harmless.
func TestTimedWaitDeadline(t *testing.T) {
	eng := NewEngine(1)
	var completed bool
	var end Time
	var lateDelivered bool
	eng.Spawn("sleeper", 0, func(p *Proc) {
		w := prepareTimedWait(p, Micros(50))
		w.Wake(Micros(200), "late")
		_, completed = waitTimed(p)
		end = p.eng.now
		// Park again past the late wake's fire time: if the stale wake
		// were delivered it would cut this sleep short.
		p.Sleep(Micros(500))
		lateDelivered = p.eng.now != Micros(550)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if completed {
		t.Fatalf("wait completed; want deadline")
	}
	if end != Micros(50) {
		t.Fatalf("woke at %v, want 50us", end)
	}
	if lateDelivered {
		t.Fatalf("stale completion wake was delivered")
	}
}

// A nil completion payload is a completion, not a timeout: the ingress
// reply path wakes with nil and must be distinguishable from the
// deadline marker.
func TestTimedWaitNilCompletion(t *testing.T) {
	eng := NewEngine(1)
	var got any
	var completed bool
	eng.Spawn("sleeper", 0, func(p *Proc) {
		w := prepareTimedWait(p, Micros(100))
		w.Wake(Micros(5), nil)
		got, completed = waitTimed(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed || got != nil {
		t.Fatalf("got (%v, %v), want (nil, true)", got, completed)
	}
}

// The word lane composes with the timed arm exactly as the chaos rack
// clients use it: WakeU64 completion wins (ok true), deadline wins (ok
// false), back to back on the same proc.
func TestTimedWaitU64Lane(t *testing.T) {
	eng := NewEngine(1)
	var firstOK, secondOK bool
	var firstV uint64
	eng.Spawn("client", 0, func(p *Proc) {
		w := prepareTimedWait(p, Micros(100))
		w.WakeU64(Micros(10), 42)
		firstV, firstOK = p.WaitU64()

		prepareTimedWait(p, Micros(30))
		_, secondOK = p.WaitU64()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !firstOK || firstV != 42 {
		t.Fatalf("first wait = (%d, %v), want (42, true)", firstV, firstOK)
	}
	if secondOK {
		t.Fatalf("second wait completed; want deadline")
	}
}

// A second timed wait after a timed-out one must not see the previous
// round's completion wake: generations fence the races.
func TestTimedWaitStaleAcrossRounds(t *testing.T) {
	eng := NewEngine(1)
	var rounds []bool
	eng.Spawn("client", 0, func(p *Proc) {
		// Round 1: completion arrives after the deadline (stale).
		w := prepareTimedWait(p, Micros(10))
		w.Wake(Micros(20), "round1-late")
		_, ok := waitTimed(p)
		rounds = append(rounds, ok)

		// Round 2: its own completion arrives in time and must be the
		// one delivered, not round 1's leftover.
		w2 := prepareTimedWait(p, Micros(100))
		w2.Wake(Micros(15), "round2")
		v, ok2 := waitTimed(p)
		rounds = append(rounds, ok2 && v == "round2")
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds[0] {
		t.Fatalf("round 1 completed; want deadline")
	}
	if !rounds[1] {
		t.Fatalf("round 2 did not deliver its own completion")
	}
}

// TestTimedWaitOverflowingDeadline: a delay past the end of the clock
// saturates at the end of time, in Sleep, At and AtU64 alike, once the
// clock is past 0 (where now+d wraps negative). Such an event stays
// queued past any RunUntil limit, Advance declines it, and the clock
// never goes back.
func TestTimedWaitOverflowingDeadline(t *testing.T) {
	eng := NewEngine(1)
	woke, fired := false, 0
	eng.Spawn("forever", Nanosecond, func(p *Proc) {
		if p.Advance(maxTime) {
			t.Error("Advance took an overflowing delay")
		}
		p.Sleep(maxTime)
		woke = true
	})
	eng.At(Nanosecond, func() {
		eng.At(maxTime, func() { fired++ })
		eng.AtU64(maxTime, func(uint64) { fired++ }, 0)
		eng.AtU64(maxTime, func(uint64) { fired++ }, 0) // behind the first on its lane
	})
	eng.RunUntil(Microsecond)
	if woke || fired != 0 || eng.Now() != Microsecond {
		t.Fatalf("woke %v, %d timers fired, clock %v; want none by 1us, clock at 1us", woke, fired, eng.Now())
	}
	if n := eng.events.size(); n != 4 {
		t.Fatalf("%d events pending, want the sleeper's wakeup and the 3 timers", n)
	}
	eng.Close()
}
