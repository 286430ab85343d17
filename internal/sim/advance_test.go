package sim

import (
	"fmt"
	"strings"
	"testing"
)

// exec is Thread.Exec's slice: Advance, and Sleep when Advance declines.
// It reports whether the slice advanced inline.
func exec(p *Proc, d Time) bool {
	if p.Advance(d) {
		return true
	}
	p.Sleep(d)
	return false
}

// TestAdvanceAtLimit: a slice that ends exactly at the RunUntil limit
// advances inline; one that ends 1 ps past it declines, and its Sleep
// leaves the wakeup queued past the window.
func TestAdvanceAtLimit(t *testing.T) {
	const limit = 10 * Nanosecond
	e := NewEngine(1)
	var atLimit, pastLimit bool
	e.Spawn("p", 0, func(p *Proc) {
		atLimit = exec(p, limit)
		pastLimit = exec(p, Picosecond)
	})
	e.RunUntil(limit)
	if !atLimit {
		t.Error("a slice ending exactly at the limit did not advance inline")
	}
	if pastLimit {
		t.Error("a slice ending 1 ps past the limit advanced inline")
	}
	if e.Now() != limit || e.Pending() != 1 || e.live != 1 {
		t.Fatalf("after the window: now %v, %d pending, %d live; want %v, 1, 1", e.Now(), e.Pending(), e.live, limit)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if e.Now() != limit+Picosecond || e.live != 0 {
		t.Fatalf("after the run: now %v, %d live; want %v, 0", e.Now(), e.live, limit+Picosecond)
	}
}

// TestAdvanceDeclinesStaleHead: the bound counts a stale head, so
// Advance declines; Sleep then drops the head and takes its own fast
// path, with no coroutine switch.
func TestAdvanceDeclinesStaleHead(t *testing.T) {
	e := NewEngine(1)
	var advanced bool
	var switches uint32
	e.Spawn("p", 0, func(p *Proc) {
		w := p.PrepareWait()
		w.Wake(Nanosecond, nil)
		w.Wake(2*Nanosecond, nil) // stale once the first is delivered
		p.Wait()
		if e.events.len() != 1 || e.events.stale != 1 {
			t.Errorf("queue holds %d entries, %d stale; want the stale head alone", e.events.len(), e.events.stale)
			return
		}
		switches = e.switches
		advanced = exec(p, 5*Nanosecond)
		switches = e.switches - switches
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if advanced {
		t.Error("Advance moved the clock past a stale head due first")
	}
	if switches != 0 {
		t.Errorf("Sleep behind a stale head made %d switches, want 0", switches)
	}
	if e.Now() != 6*Nanosecond || e.events.len() != 0 || e.events.stale != 0 {
		t.Errorf("now %v, %d queued, %d stale; want 6ns, 0, 0", e.Now(), e.events.len(), e.events.stale)
	}
}

// TestAdvanceDeclinesQueued: an event queued for the proc's current
// generation sends the slice to Sleep, even with nothing due before the
// wakeup; Sleep's fast path retires that event.
func TestAdvanceDeclinesQueued(t *testing.T) {
	e := NewEngine(1)
	var advanced bool
	e.Spawn("p", 0, func(p *Proc) {
		w := p.PrepareWait()
		w.Wake(Second, nil)
		if p.queued == 0 {
			t.Error("Wake queued nothing for the current generation")
			return
		}
		advanced = exec(p, Nanosecond)
		if w.Valid() || p.queued != 0 || e.events.stale != 1 {
			t.Errorf("after Sleep: waiter valid %v, %d queued, %d stale; want false, 0, 1", w.Valid(), p.queued, e.events.stale)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if advanced {
		t.Error("Advance ran with an event queued for the current generation")
	}
	if e.Now() != Nanosecond {
		t.Errorf("now %v, want 1ns: the retired wake must not be delivered", e.Now())
	}
}

// TestAdvanceAfterClose: deferred code that Close runs declines in
// Advance, and its Sleep panics with the closed-engine message.
func TestAdvanceAfterClose(t *testing.T) {
	e := NewEngine(1)
	advanced := true
	e.Spawn("p", 0, func(p *Proc) {
		defer func() {
			advanced = p.Advance(Nanosecond)
			p.Sleep(Nanosecond)
		}()
		p.PrepareWait()
		p.Wait()
	})
	e.Run()
	r := capturePanic(e.Close)
	if msg := fmt.Sprint(r); !strings.Contains(msg, "engine is closed") {
		t.Fatalf("Close panicked with %q, want the closed-engine panic", msg)
	}
	if advanced {
		t.Error("Advance moved the clock of a closed engine")
	}
}
