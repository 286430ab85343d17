package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits briefly for runtime.NumGoroutine to fall back to
// want, returning the last count seen. Callers fail only on a count above
// want: a goroutine left by an earlier test may exit meanwhile.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// capturePanic runs fn and returns what it panicked with, or nil.
func capturePanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestCloseUnwindsParkedProcs: procs parked on a wait nobody fires, and
// procs whose wakeup lies beyond the RunUntil window, are unwound by
// Close — their deferred code runs and their coroutines exit.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	unwound := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), 0, func(p *Proc) {
			defer func() { unwound++ }()
			p.PrepareWait()
			p.Wait()
			t.Error("a never-woken waiter resumed")
		})
		e.Spawn(fmt.Sprintf("sleeper%d", i), 0, func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Second)
			t.Error("a sleeper resumed past the window")
		})
	}
	e.RunUntil(10 * Nanosecond)
	if e.live != 8 {
		t.Fatalf("live procs = %d before Close, want 8", e.live)
	}
	e.Close()
	if unwound != 8 {
		t.Errorf("deferred code ran for %d procs, want 8", unwound)
	}
	if e.live != 0 {
		t.Errorf("live procs = %d after Close, want 0", e.live)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}

// TestCloseUnwindsTimedWaits: procs parked in timed waits whose
// deadlines lie beyond the RunUntil window are unwound by Close.
func TestCloseUnwindsTimedWaits(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	unwound := 0
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("waiter%d", i), Time(i), func(p *Proc) {
			defer func() { unwound++ }()
			prepareTimedWait(p, Second)
			waitTimed(p)
			t.Error("a waiter resumed past the window")
		})
	}
	e.RunUntil(10 * Nanosecond)
	if e.events.len() != 3 || e.events.live() != 3 {
		t.Fatalf("%d queued, %d live before Close; want the three deadlines", e.events.len(), e.events.live())
	}
	e.Close()
	if unwound != 3 || e.live != 0 {
		t.Errorf("deferred code ran for %d procs, %d live; want 3, 0", unwound, e.live)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}

// TestCloseNeverDispatchedProcs: a proc whose start event was never
// reached is retired without its body ever running.
func TestCloseNeverDispatchedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	ran := false
	e.Spawn("late", Second, func(p *Proc) { ran = true })
	e.Spawn("unrun", 0, func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Error("Close ran the body of a never-dispatched proc")
	}
	if e.live != 0 {
		t.Errorf("live procs = %d after Close, want 0", e.live)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}

// TestCloseTwiceAndRunAfterClose: a second Close is a no-op; running a
// closed engine panics instead of resuming unwound procs.
func TestCloseTwiceAndRunAfterClose(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("w", 0, func(p *Proc) {
		p.PrepareWait()
		p.Wait()
	})
	e.Run()
	e.Close()
	if r := capturePanic(e.Close); r != nil {
		t.Fatalf("second Close panicked: %v", r)
	}
	r := capturePanic(func() { e.Run() })
	if r == nil || !strings.Contains(fmt.Sprint(r), "closed engine") {
		t.Fatalf("Run after Close = %v, want a closed-engine panic", r)
	}
}

// TestCloseDeferredEngineUse: deferred code that parks, spawns or
// schedules while Close unwinds its proc gets a clear panic, which Close
// re-throws after every other proc has still been unwound.
func TestCloseDeferredEngineUse(t *testing.T) {
	uses := []struct {
		name string
		use  func(e *Engine, p *Proc)
	}{
		{"sleep", func(e *Engine, p *Proc) { p.Sleep(Nanosecond) }},
		{"at", func(e *Engine, p *Proc) { e.At(Nanosecond, func() {}) }},
		{"spawn", func(e *Engine, p *Proc) { e.Spawn("child", 0, func(*Proc) {}) }},
		{"wait", func(e *Engine, p *Proc) { p.PrepareWait(); p.Wait() }},
	}
	for _, u := range uses {
		use := u.use
		t.Run(u.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine(1)
			e.Spawn("rude", 0, func(p *Proc) {
				defer use(e, p)
				p.PrepareWait()
				p.Wait()
			})
			bystanderUnwound := false
			e.Spawn("bystander", 0, func(p *Proc) {
				defer func() { bystanderUnwound = true }()
				p.PrepareWait()
				p.Wait()
			})
			e.Run()
			r := capturePanic(e.Close)
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, `sim: proc "rude" panicked`) || !strings.Contains(msg, "engine is closed") {
				t.Fatalf("Close panicked with %q, want the rude proc's closed-engine panic", msg)
			}
			if !bystanderUnwound || e.live != 0 {
				t.Errorf("Close stopped early: bystander unwound %v, Live %d", bystanderUnwound, e.live)
			}
			if n := settleGoroutines(before); n > before {
				t.Errorf("goroutines = %d after Close, want %d", n, before)
			}
		})
	}
}

// TestClusterClose: Cluster.Close unwinds parked procs on every shard.
func TestClusterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewCluster(1, 3)
	for i := 0; i < 3; i++ {
		c.Shard(i).Engine().Spawn(fmt.Sprintf("p%d", i), 0, func(p *Proc) {
			p.PrepareWait()
			p.Wait()
		})
	}
	if err := c.Run(); err == nil {
		t.Fatal("Run returned nil with every proc parked")
	}
	c.Close()
	if err := c.eng.Deadlock(); err != nil {
		t.Errorf("Deadlock after Close = %v, want nil", err)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}
