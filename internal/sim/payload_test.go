package sim

import "testing"

// TestWaiterValidSpentAfterDelivery is the regression test for the
// Valid/push staleness disagreement: after a waiter's wakeup has been
// delivered, the proc's generation is unchanged until its next
// PrepareWait/Sleep, and the old `gen == p.gen` test wrongly reported the
// spent waiter as still valid even though push would classify a Wake on
// it as stale at birth.
func TestWaiterValidSpentAfterDelivery(t *testing.T) {
	e := NewEngine(1)
	var before, after, reused bool
	e.Spawn("sleeper", 0, func(p *Proc) {
		w := p.PrepareWait()
		e.At(5*Nanosecond, func() {
			before = w.Valid()
			w.Wake(0, nil)
		})
		p.Wait()
		// Delivered, generation not yet bumped: the waiter is spent.
		after = w.Valid()
		// Firing the spent waiter must be a no-op, not a second wakeup.
		w.Wake(0, "ghost")
		p.Sleep(10 * Nanosecond)
		reused = w.Valid()
	})
	e.Run()
	if !before {
		t.Fatal("Valid() = false while armed, want true")
	}
	if after {
		t.Fatal("Valid() = true after its wakeup was delivered, want false")
	}
	if reused {
		t.Fatal("Valid() = true after the proc moved to a new generation")
	}
	if e.live != 0 {
		t.Fatalf("live procs = %d, want 0 (ghost wake resumed the proc?)", e.live)
	}
}

// TestWaiterValidAgreesWithPush cross-checks Valid against the engine's
// push classification across the waiter lifecycle: whenever Valid reports
// false, a Wake must land as a stale event (live event count unchanged).
func TestWaiterValidAgreesWithPush(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", 0, func(p *Proc) {
		w := p.PrepareWait()
		e.At(Nanosecond, func() { w.Wake(0, nil) })
		p.Wait()
		if w.Valid() {
			t.Error("spent waiter reads valid")
		}
		liveBefore := e.events.live()
		w.Wake(0, nil)
		if got := e.events.live(); got != liveBefore {
			t.Errorf("Wake on spent waiter changed live events: %d -> %d", liveBefore, got)
		}
	})
	e.Run()
}

// TestU64FastLane: a uint64 payload sent with WakeU64 round-trips
// unboxed and is observable through both the typed and the generic
// receive paths.
func TestU64FastLane(t *testing.T) {
	e := NewEngine(1)
	var typedW, genericW Waiter
	var typedV uint64
	var typedOK bool
	var generic any
	e.Spawn("typed", 0, func(p *Proc) {
		typedW = p.PrepareWait()
		typedV, typedOK = p.WaitU64()
	})
	e.Spawn("generic", 0, func(p *Proc) {
		genericW = p.PrepareWait()
		generic = p.Wait()
	})
	e.Spawn("waker", Nanosecond, func(p *Proc) {
		typedW.WakeU64(0, 0xfeedface)
		genericW.WakeU64(0, 42)
	})
	e.Run()
	if !typedOK || typedV != 0xfeedface {
		t.Fatalf("WaitU64 = (%#x, %v), want (0xfeedface, true)", typedV, typedOK)
	}
	if v, ok := generic.(uint64); !ok || v != 42 {
		t.Fatalf("generic Wait saw %v (%T), want uint64 42", generic, generic)
	}
}

// TestU64FastLaneMismatch: WaitU64 under a waker that delivers nil or a
// boxed value reports ok=false rather than a bogus word.
func TestU64FastLaneMismatch(t *testing.T) {
	e := NewEngine(1)
	var a, b Waiter
	var ok1, ok2 bool
	e.Spawn("a", 0, func(p *Proc) {
		a = p.PrepareWait()
		_, ok1 = p.WaitU64()
	})
	e.Spawn("b", 0, func(p *Proc) {
		b = p.PrepareWait()
		_, ok2 = p.WaitU64()
	})
	e.Spawn("waker", Nanosecond, func(p *Proc) {
		a.Wake(0, nil)
		b.Wake(0, "boxed")
	})
	e.Run()
	if ok1 || ok2 {
		t.Fatalf("WaitU64 ok = (%v, %v) for nil/boxed payloads, want false/false", ok1, ok2)
	}
}

// TestWaiterWakeU64 covers the raw Waiter entry point of the fast lane.
func TestWaiterWakeU64(t *testing.T) {
	e := NewEngine(1)
	var got uint64
	var ok bool
	e.Spawn("p", 0, func(p *Proc) {
		w := p.PrepareWait()
		e.At(3*Nanosecond, func() { w.WakeU64(0, 7) })
		got, ok = p.WaitU64()
	})
	e.Run()
	if !ok || got != 7 {
		t.Fatalf("WaitU64 = (%d, %v), want (7, true)", got, ok)
	}
}

// TestTimeoutValueRoundTrip: the timed-wait helpers' zero-size
// timeoutMark comes out of a full trip through a Waiter wake equal to
// the value sent, which is how waitTimed recognizes a deadline.
func TestTimeoutValueRoundTrip(t *testing.T) {
	e := NewEngine(1)
	var got any
	e.Spawn("p", 0, func(p *Proc) {
		w := p.PrepareWait()
		e.At(Nanosecond, func() { w.Wake(0, timeoutMark{}) })
		got = p.Wait()
	})
	e.Run()
	if got != (timeoutMark{}) {
		t.Fatalf("payload %v (%T) is not the timeout mark after a round trip", got, got)
	}
}
