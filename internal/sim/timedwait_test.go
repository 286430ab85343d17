package sim

import "testing"

// Completion before the deadline: the timed wait returns the completion
// payload and the abandoned deadline timer never fires.
func TestTimedWaitCompletes(t *testing.T) {
	eng := NewEngine(1)
	var got any
	var completed bool
	var end Time
	eng.Spawn("sleeper", 0, func(p *Proc) {
		w := p.PrepareTimedWait(Micros(100))
		w.Wake(Micros(10), "done")
		got, completed = p.WaitTimed()
		end = p.Now()
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
		w := p.PrepareTimedWait(Micros(50))
		w.Wake(Micros(200), "late")
		_, completed = p.WaitTimed()
		end = p.Now()
		// Park again past the late wake's fire time: if the stale wake
		// were delivered it would cut this sleep short.
		p.Sleep(Micros(500))
		lateDelivered = p.Now() != Micros(550)
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
		w := p.PrepareTimedWait(Micros(100))
		w.Wake(Micros(5), nil)
		got, completed = p.WaitTimed()
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
		w := p.PrepareTimedWait(Micros(100))
		w.WakeU64(Micros(10), 42)
		firstV, firstOK = p.WaitU64()

		p.PrepareTimedWait(Micros(30))
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
		w := p.PrepareTimedWait(Micros(10))
		w.Wake(Micros(20), "round1-late")
		_, ok := p.WaitTimed()
		rounds = append(rounds, ok)

		// Round 2: its own completion arrives in time and must be the
		// one delivered, not round 1's leftover.
		w2 := p.PrepareTimedWait(Micros(100))
		w2.Wake(Micros(15), "round2")
		v, ok2 := p.WaitTimed()
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

// TestTimedWaitOverflowingDeadline: a deadline past the end of the
// clock wraps and is clamped to now, as every push is; such a timer
// would break its lane's order, so it goes to the heap and fires at
// once even while an earlier timer of the same delay heads the lane.
func TestTimedWaitOverflowingDeadline(t *testing.T) {
	eng := NewEngine(1)
	var end Time
	completed := true
	eng.Spawn("forever", 0, func(p *Proc) {
		p.PrepareTimedWait(maxTime) // due at maxTime: heads the lane
		p.WaitTimed()
	})
	eng.Spawn("wraps", Nanosecond, func(p *Proc) {
		p.PrepareTimedWait(maxTime)
		_, completed = p.WaitTimed()
		end = p.Now()
	})
	eng.RunUntil(Microsecond)
	if completed || end != Nanosecond {
		t.Fatalf("completed %v at %v; want a timeout at 1ns", completed, end)
	}
	eng.Close()
}
