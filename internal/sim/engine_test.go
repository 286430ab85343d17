package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Nanos(2).Nanoseconds() != 2 {
		t.Fatalf("Nanos(2) round-trip = %v", Nanos(2).Nanoseconds())
	}
	if Millis(1.5) != 1500*Microsecond {
		t.Fatalf("Millis(1.5) = %v", Millis(1.5))
	}
	if got := (34 * Nanosecond).String(); got != "34ns" {
		t.Fatalf("String() = %q, want 34ns", got)
	}
	if got := Millis(1.66).String(); got != "1.66ms" {
		t.Fatalf("String() = %q, want 1.66ms", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("a", 0, func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		p.Sleep(5 * Nanosecond)
		at = p.eng.now
	})
	e.Run()
	if at != 15*Nanosecond {
		t.Fatalf("clock after sleeps = %v, want 15ns", at)
	}
	if e.live != 0 {
		t.Fatalf("live procs = %d, want 0", e.live)
	}
}

func TestEventOrderIsDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, 0, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(Time(e.Rand().Intn(5)+1) * Nanosecond)
					order = append(order, name)
				}
			})
		}
		e.Run()
		return order
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d diverged at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same instant not FIFO: %v", order)
		}
	}
}

func TestWaiterWake(t *testing.T) {
	e := NewEngine(1)
	var got any
	var done Time
	e.Spawn("sleeper", 0, func(p *Proc) {
		w := p.PrepareWait()
		e.At(7*Nanosecond, func() { w.Wake(0, "hello") })
		got = p.Wait()
		done = p.eng.now
	})
	e.Run()
	if got != "hello" || done != 7*Nanosecond {
		t.Fatalf("got %v at %v, want hello at 7ns", got, done)
	}
}

func TestStaleWakeIsDropped(t *testing.T) {
	e := NewEngine(1)
	var wakes []any
	e.Spawn("sleeper", 0, func(p *Proc) {
		w := p.PrepareWait()
		w.Wake(1*Nanosecond, "first")
		w.Wake(2*Nanosecond, "second") // stale by the time it fires
		wakes = append(wakes, p.Wait())
		p.Sleep(10 * Nanosecond) // the stale event fires during this sleep
		wakes = append(wakes, "slept")
	})
	e.Run()
	if len(wakes) != 2 || wakes[0] != "first" || wakes[1] != "slept" {
		t.Fatalf("wakes = %v, want [first slept]", wakes)
	}
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, 0, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("waker", 10*Nanosecond, func(p *Proc) {
		for i := 0; i < 3; i++ {
			if !q.WakeOne(0, nil) {
				t.Errorf("WakeOne %d found no waiter", i)
			}
			p.Sleep(Nanosecond)
		}
	})
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order = %v, want [a b c]", order)
	}
}

func TestWaitQueueTimeout(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var ok bool
	var at Time
	e.Spawn("sleeper", 0, func(p *Proc) {
		_, ok = waitTimeout(&q, p, 50*Nanosecond)
		at = p.eng.now
	})
	e.Run()
	if ok {
		t.Fatal("wait should have timed out")
	}
	if at != 50*Nanosecond {
		t.Fatalf("timed out at %v, want 50ns", at)
	}
	// The queue must no longer wake the timed-out waiter.
	if q.WakeOne(0, nil) {
		t.Fatal("WakeOne woke a timed-out waiter")
	}
}

func TestWaitQueueWakeBeforeTimeout(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var got any
	var ok bool
	e.Spawn("sleeper", 0, func(p *Proc) {
		got, ok = waitTimeout(&q, p, 50*Nanosecond)
	})
	e.Spawn("waker", 10*Nanosecond, func(p *Proc) {
		q.WakeOne(0, 99)
	})
	e.Run()
	if !ok || got != 99 {
		t.Fatalf("got (%v,%v), want (99,true)", got, ok)
	}
}

func TestWakeAll(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn("w", 0, func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	e.Spawn("waker", Nanosecond, func(p *Proc) {
		if n := wakeAll(&q); n != 5 {
			t.Errorf("wakeAll = %d, want 5", n)
		}
	})
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Spawn("ticker", 0, func(p *Proc) {
		for {
			p.Sleep(10 * Nanosecond)
			ticks++
		}
	})
	e.RunUntil(95 * Nanosecond)
	if ticks != 9 {
		t.Fatalf("ticks = %d, want 9", ticks)
	}
	if e.Now() != 95*Nanosecond {
		t.Fatalf("Now() = %v, want 95ns", e.Now())
	}
	if e.live != 1 {
		t.Fatalf("live procs = %d, want 1 (ticker still parked)", e.live)
	}
}

func TestCallbackEvents(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.At(5*Nanosecond, func() { times = append(times, e.Now()) })
	e.At(2*Nanosecond, func() { times = append(times, e.Now()) })
	e.Run()
	if len(times) != 2 || times[0] != 2*Nanosecond || times[1] != 5*Nanosecond {
		t.Fatalf("callback times = %v", times)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate from proc")
		}
		if got := fmt.Sprint(r); !strings.Contains(got, `sim: proc "bad" panicked: boom`) {
			t.Fatalf("proc panic surfaced as %q", got)
		}
	}()
	e := NewEngine(1)
	e.Spawn("bad", 0, func(p *Proc) { panic("boom") })
	e.Run()
}

// TestCallbackPanicAttribution: a panicking At callback must surface as
// "callback panicked" no matter where the engine loop runs when it fires
// — in enter with no procs, inside a parking proc (which must NOT be
// blamed or unwound), or in enter right after a proc exited.
func TestCallbackPanicAttribution(t *testing.T) {
	capture := func(fn func(e *Engine)) (r any) {
		defer func() { r = recover() }()
		e := NewEngine(1)
		fn(e)
		e.Run()
		return nil
	}

	// Loop in enter: no procs at all.
	r := capture(func(e *Engine) {
		e.At(Nanosecond, func() { panic("boom-boot") })
	})
	if r == nil || !strings.Contains(fmt.Sprint(r), "callback panicked: boom-boot") {
		t.Fatalf("bootstrap-hosted callback panic = %v, want callback panicked", r)
	}

	// Loop inside a parking proc: "innocent" is carrying the loop when
	// the callback fires; the panic must not be attributed to it.
	r = capture(func(e *Engine) {
		e.Spawn("innocent", 0, func(p *Proc) { p.Sleep(100 * Nanosecond) })
		e.At(5*Nanosecond, func() { panic("boom-parked") })
	})
	if r == nil || !strings.Contains(fmt.Sprint(r), "callback panicked: boom-parked") {
		t.Fatalf("parked-proc-hosted callback panic = %v, want callback panicked", r)
	}
	if strings.Contains(fmt.Sprint(r), "innocent") {
		t.Fatalf("callback panic misattributed to the parked proc: %v", r)
	}

	// Loop in enter after an exit: the proc returns first, and enter
	// carries the loop into the panicking callback.
	r = capture(func(e *Engine) {
		e.Spawn("short", 0, func(p *Proc) {})
		e.At(5*Nanosecond, func() { panic("boom-exit") })
	})
	if r == nil || !strings.Contains(fmt.Sprint(r), "callback panicked: boom-exit") {
		t.Fatalf("dying-proc-hosted callback panic = %v, want callback panicked", r)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRand(seed)
		m := int(n%100) + 1
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(3)
	var sum Time
	const n = 20000
	mean := 10 * Microsecond
	for i := 0; i < n; i++ {
		sum += r.Exp(mean)
	}
	got := float64(sum) / n
	if got < 0.9*float64(mean) || got > 1.1*float64(mean) {
		t.Fatalf("empirical mean %v, want within 10%% of %v", Time(got), mean)
	}
}

func TestLnAccuracy(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0.6931471805599453},
		{0.5, -0.6931471805599453},
		{10, 2.302585092994046},
		{0.001, -6.907755278982137},
	}
	for _, c := range cases {
		got := ln(c.x)
		diff := got - c.want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Fatalf("ln(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestExpIsMonotoneInSeedStream(t *testing.T) {
	// Property: Exp never returns negative durations.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			if r.Exp(Microsecond) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// AtU64 hands its word to the callback and takes the same (at, seq)
// slot an At call would: timers at one instant run in call order
// whichever of the two scheduled them. AtU64 timers of one delay wait
// on a timer lane, the second in the lane's ring, and still interleave
// with the heap's events in that order.
func TestAtU64OrdersWithAt(t *testing.T) {
	e := NewEngine(1)
	var got []uint64
	record := func(v uint64) { got = append(got, v) }
	e.At(5, func() { got = append(got, 1) })
	e.AtU64(5, record, 2)
	e.At(5, func() { got = append(got, 3) })
	e.AtU64(3, record, 0)
	e.AtU64(5, record, 4)
	if e.events.rest != 1 || e.events.size() != 5 {
		t.Fatalf("%d timers in lane rings, %d pending; want 1, 5", e.events.rest, e.events.size())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("timers ran as %v, want %v", got, want)
	}
}
