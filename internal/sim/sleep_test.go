package sim

import (
	"fmt"
	"slices"
	"testing"
)

// TestSleepSkipsOwnRetiredWake: a slow Sleep swaps its wakeup for the
// head of the queue and hands that head to the loop. Here the head is
// the sleeper's own Wake(0), which the Sleep's generation bump has just
// retired, so the loop must drop it: a resumes at its wakeup, after b,
// not at once.
func TestSleepSkipsOwnRetiredWake(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	note := func(p *Proc) { trace = append(trace, fmt.Sprintf("%v %s", p.Now(), p.Name())) }
	e.Spawn("a", 0, func(p *Proc) {
		w := p.PrepareWait()
		w.Wake(0, nil)
		p.Sleep(10 * Nanosecond)
		note(p)
	})
	e.Spawn("b", Nanosecond, note)
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if want := []string{"1ns b", "10ns a"}; !slices.Equal(trace, want) {
		t.Fatalf("trace = %q, want %q", trace, want)
	}
	if e.events.len() != 0 || e.events.stale != 0 {
		t.Fatalf("queue left with %d entries, %d counted stale; want 0, 0", e.events.len(), e.events.stale)
	}
}

// TestFastSleepRetiresWaiter: a fast-path Sleep consumes the proc's
// generation in place instead of bumping it. A Waiter taken before it
// must read as spent afterwards, an event still queued for it must count
// as stale, and firing it must not satisfy the next PrepareWait/Wait.
func TestFastSleepRetiresWaiter(t *testing.T) {
	e := NewEngine(1)
	var got any
	var at Time
	e.Spawn("a", 0, func(p *Proc) {
		w := p.PrepareWait()
		w.Wake(5*Nanosecond, "queued")
		if n := e.events.live(); n != 1 {
			t.Errorf("live events before Sleep = %d, want 1", n)
		}
		p.Sleep(Nanosecond) // the queued wake is due later: fast path
		if p.Now() != Nanosecond || e.events.len() != 1 {
			t.Errorf("after Sleep: now %v with %d queued, want 1ns with 1 (fast path)", p.Now(), e.events.len())
		}
		if w.Valid() {
			t.Error("Waiter taken before a fast Sleep still reads Valid")
		}
		if n := e.events.live(); n != 0 {
			t.Errorf("live events after Sleep = %d, want 0: the queued wake is stale", n)
		}
		w.Wake(0, "fired")
		if n := e.events.live(); n != 0 {
			t.Errorf("live events after firing the spent Waiter = %d, want 0", n)
		}
		next := p.PrepareWait()
		next.Wake(3*Nanosecond, "fresh")
		got = p.Wait()
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if got != "fresh" || at != 4*Nanosecond {
		t.Fatalf("Wait returned %v at %v, want fresh at 4ns", got, at)
	}
}

// TestSleepTiesWithHead: when the head is due at the very instant a
// slow Sleep wakes, (at, seq) still decides. An At callback queued
// before the Sleep runs first; a link delivery at that instant sorts in
// the band after every engine event, so the sleeper's wakeup comes
// first and the head is not swapped out ahead of it. Thread.Exec's
// slice (Advance, then Sleep) must decline at the tie and order alike.
func TestSleepTiesWithHead(t *testing.T) {
	sleeps := []struct {
		name  string
		sleep func(*Proc, Time)
	}{
		{"Sleep", (*Proc).Sleep},
		{"Advance", func(p *Proc, d Time) { exec(p, d) }},
	}
	for _, s := range sleeps {
		sleep := s.sleep
		t.Run(s.name, func(t *testing.T) {
			e := NewEngine(1)
			var trace []string
			lk := &Link{eng: e, handler: func(uint64) { trace = append(trace, "link") }}
			e.Spawn("a", 0, func(p *Proc) {
				e.At(5*Nanosecond, func() { trace = append(trace, "at") })
				sleep(p, 5*Nanosecond)
				trace = append(trace, "a")
				lk.SendU64(5*Nanosecond, 0)
				sleep(p, 5*Nanosecond)
				trace = append(trace, "a")
			})
			if err := e.Run(); err != nil {
				t.Fatalf("Run = %v", err)
			}
			if want := []string{"at", "a", "a", "link"}; !slices.Equal(trace, want) {
				t.Fatalf("trace = %q, want %q", trace, want)
			}
		})
	}
}
