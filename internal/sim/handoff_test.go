package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestHandoffIsOneSwitch: a wake between two procs costs exactly one
// coroutine switch. The ping-pong of BenchmarkEngineRunPingPong makes
// two proc-to-proc wakes a round, so n rounds take 2n switches; going
// through the root for each wake would take 4n.
func TestHandoffIsOneSwitch(t *testing.T) {
	for _, n := range []int{1, 10, 1000} {
		e := NewEngine(1)
		spawnPingPong(e, n)
		if err := e.Run(); err != nil {
			t.Fatalf("n=%d: Run = %v", n, err)
		}
		if got, want := e.switches, uint32(2*n); got != want {
			t.Errorf("n=%d: %d coroutine switches, want %d", n, got, want)
		}
	}
}

// TestProcReturnsIntoBlockedProc: a proc whose body returns while
// another proc's goroutine is blocked in its coroutine resumes that
// proc, which carries the engine loop on. Delivery order and the switch
// count match the hand-derived trace.
func TestProcReturnsIntoBlockedProc(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	note := func(p *Proc) { trace = append(trace, fmt.Sprintf("%v %s", p.Now(), p.Name())) }
	a := e.Spawn("a", 0, func(p *Proc) {
		p.Sleep(10 * Nanosecond) // hands control to b: a blocks in b's coroutine
		note(p)
	})
	e.Spawn("b", Nanosecond, func(p *Proc) {
		if a.at != p {
			t.Error("b runs with a not blocked in b's coroutine")
		}
		note(p) // returning resumes a, which dispatches c
	})
	c := e.Spawn("c", 2*Nanosecond, func(p *Proc) {
		p.Sleep(3 * Nanosecond) // d starts first at 5ns: c blocks in d's coroutine
		note(p)
		p.Sleep(10 * Nanosecond)
		note(p)
	})
	e.Spawn("d", 5*Nanosecond, func(p *Proc) {
		if c.at != p {
			t.Error("d runs with c not blocked in d's coroutine")
		}
		note(p) // returning resumes c with its own wakeup next: no switch
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run = %v", err)
	}
	want := []string{"1ns b", "5ns d", "5ns c", "10ns a", "15ns c"}
	if !slices.Equal(trace, want) {
		t.Errorf("trace = %q, want %q", trace, want)
	}
	// root→a, a→b, a→c, c→d, c→a, root→c; the two returns into a
	// blocked proc and the two into the root are not switches.
	if e.switches != 6 {
		t.Errorf("%d coroutine switches, want 6", e.switches)
	}
	if e.live != 0 {
		t.Errorf("live procs = %d, want 0", e.live)
	}
}

// TestProcPanicsIntoBlockedProc: a proc that panics while another
// proc's goroutine is blocked in its coroutine stops the run. The
// resumed proc hands control to the root instead of dispatching on, and
// Run re-throws the panic with the clock at the panic.
func TestProcPanicsIntoBlockedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	aResumed, lateRan := false, false
	a := e.Spawn("a", 0, func(p *Proc) {
		p.Sleep(5 * Nanosecond) // hands control to x: a blocks in x's coroutine
		aResumed = true
	})
	e.Spawn("x", Nanosecond, func(p *Proc) {
		p.Sleep(2 * Nanosecond) // nothing queued before 3ns: advances inline
		if a.at != p {
			t.Error("x panics with a not blocked in x's coroutine")
		}
		panic("boom")
	})
	e.At(4*Nanosecond, func() { lateRan = true })
	r := capturePanic(func() { e.Run() })
	if msg := fmt.Sprint(r); !strings.Contains(msg, `sim: proc "x" panicked: boom`) {
		t.Fatalf("Run panicked with %q, want x's panic", msg)
	}
	if e.Now() != 3*Nanosecond {
		t.Errorf("clock = %v after the panic, want 3ns", e.Now())
	}
	if aResumed || lateRan {
		t.Errorf("dispatch went on after the panic: a resumed %v, 4ns callback ran %v", aResumed, lateRan)
	}
	e.Close()
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}

// TestCloseProcsBlockedInEachOther: Close unwinds procs whose goroutines
// are blocked in one another's coroutines — a ring, so each unwound body
// returns into the next blocked proc, which unwinds in turn — and
// retires a never-dispatched proc without running its body.
func TestCloseProcsBlockedInEachOther(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(1)
	const n = 4
	procs := make([]*Proc, n)
	unwound := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.Spawn(fmt.Sprintf("w%d", i), Time(i)*Nanosecond, func(p *Proc) {
			defer func() { unwound[i]++ }()
			p.PrepareWait()
			p.Wait() // never fired: hands control to the next start
			t.Errorf("%s resumed", p.Name())
		})
	}
	late := false
	e.Spawn("late", Second, func(p *Proc) { late = true })
	e.RunUntil(10 * Nanosecond)
	// Each proc handed control to the next one's start, and the last
	// one back to the root, which was blocked in w0's coroutine.
	for i, p := range procs {
		if want := procs[(i+1)%n]; p.at != want {
			t.Fatalf("w%d not blocked in %s's coroutine", i, want.name)
		}
	}
	e.Close()
	if !slices.Equal(unwound, []int{1, 1, 1, 1}) {
		t.Errorf("deferred code ran %v times per proc, want once each", unwound)
	}
	if late {
		t.Error("Close ran the body of a never-dispatched proc")
	}
	if e.live != 0 {
		t.Errorf("live procs = %d after Close, want 0", e.live)
	}
	if n := settleGoroutines(before); n > before {
		t.Errorf("goroutines = %d after Close, want %d", n, before)
	}
}
