package sim

import "testing"

// BenchmarkEngineChurn measures raw event queue throughput under Run: a
// rolling window of 64 callback events pushed and popped through the
// 4-ary heap, each popped event pushing its successor. One op is one
// push plus one pop. Steady state must be allocation-free (the event
// pool is the heap slice itself).
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var churn func()
	churn = func() {
		if n < b.N {
			e.At(Time(n%16), churn)
			n++
		}
	}
	for i := 0; i < 64; i++ {
		e.At(Time(i%16), churn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineWaitQueueContention measures a herd of waiters cycling
// through one WaitQueue under Run: WakeAll sweeps refill the ring while
// each woken proc immediately re-waits, exercising ring growth,
// wraparound and the event heap under fan-out. One op is one delivered
// wakeup.
func BenchmarkEngineWaitQueueContention(b *testing.B) {
	e := NewEngine(1)
	var q WaitQueue
	const workers = 64
	n := 0
	for i := 0; i < workers; i++ {
		e.Spawn("w", 0, func(p *Proc) {
			for n < b.N {
				q.Wait(p)
				n++
			}
		})
	}
	var sweep func()
	sweep = func() {
		q.WakeAll(0, nil)
		if e.live > 0 {
			e.At(Nanosecond, sweep)
		}
	}
	e.At(Nanosecond, sweep)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSleepWake measures the cost of one Sleep (park + timed
// self-wake) under Run: a single proc repeatedly sleeping. This is the
// pattern Thread.Exec hammers — every simulated computation slice is one
// of these — so it dominates the OLTP figures' wall time.
func BenchmarkEngineSleepWake(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("s", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineInterleavedSleep measures Sleep's slow path in the
// heap shape of the open-loop runs. Four procs, like fig8's four busy
// CPUs, sleep equal slices from staggered starts, so every Sleep finds
// another proc's wakeup due first and yields to it. Beneath them sit 128
// live timers parked 2ms out, like the session deadlines, each re-armed
// when it fires. One op is one Sleep.
func BenchmarkEngineInterleavedSleep(b *testing.B) {
	const (
		procs   = 4
		timers  = 128
		slice   = 10 * Nanosecond
		timeout = 2 * Millisecond
	)
	e := NewEngine(1)
	n := 0
	var rearm func(uint64)
	rearm = func(uint64) {
		if n < b.N {
			e.AtU64(timeout, rearm, 0)
		}
	}
	for i := 0; i < timers; i++ {
		e.AtU64(timeout+Time(i)*Nanosecond, rearm, 0)
	}
	for i := 0; i < procs; i++ {
		e.Spawn("cpu", Time(i)*Nanosecond, func(p *Proc) {
			for n < b.N {
				n++
				p.Sleep(slice)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineRunPingPong measures a full sleep/wake round trip
// between two procs under Run — the dispatch path itself, as the
// experiments drive it (Run/RunUntil). One op is one round: two
// dispatches.
func BenchmarkEngineRunPingPong(b *testing.B) {
	e := NewEngine(1)
	spawnPingPong(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// spawnPingPong spawns two procs that pass control back and forth
// through two WaitQueues for n rounds, each round two proc-to-proc
// wakes.
func spawnPingPong(e *Engine, n int) {
	var q1, q2 WaitQueue
	e.Spawn("a", 0, func(p *Proc) {
		for i := 0; i < n; i++ {
			q1.Wait(p)
			q2.WakeOne(0, nil)
		}
	})
	e.Spawn("b", Nanosecond, func(p *Proc) {
		for i := 0; i < n; i++ {
			q1.WakeOne(0, nil)
			if i < n-1 {
				q2.Wait(p)
			}
		}
	})
}

// BenchmarkEngineHandoffRing measures proc-to-proc handoff alone: 8
// procs pass one token round a ring of WaitQueues, each waking the next
// and parking until the token comes round again. One op is one handoff.
func BenchmarkEngineHandoffRing(b *testing.B) {
	const procs = 8
	e := NewEngine(1)
	var ring [procs]WaitQueue
	n := uint64(b.N)
	for i := 0; i < procs; i++ {
		i := i
		// Proc 0 starts last, once every other proc waits for the token.
		start := Time(0)
		if i == 0 {
			start = Nanosecond
		}
		e.Spawn("r", start, func(p *Proc) {
			next := &ring[(i+1)%procs]
			tok := uint64(0)
			if i > 0 {
				tok, _ = ring[i].WaitU64(p)
			}
			for tok < n {
				next.WakeOneU64(0, tok+1)
				tok, _ = ring[i].WaitU64(p)
			}
			next.WakeOneU64(0, tok) // pass the end on round the ring
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineCallbackChain measures consecutive At callbacks under
// Run: pure engine-context events with no proc dispatch at all.
func BenchmarkEngineCallbackChain(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.At(Nanosecond, tick)
		}
	}
	e.At(Nanosecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineTimeoutChurn measures the WaitTimeout wake-before-
// deadline pattern from the OLTP runs under Run: every op abandons a
// timer event, so this path exercises stale accounting and periodic
// compaction. One op is one early wake of the sleeper.
func BenchmarkEngineTimeoutChurn(b *testing.B) {
	e := NewEngine(1)
	var q WaitQueue
	e.Spawn("sleeper", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if _, ok := q.WaitTimeout(p, Second); !ok {
				b.Error("sleeper timed out")
				return
			}
		}
	})
	e.Spawn("waker", Nanosecond, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.WakeOne(0, nil)
			p.Sleep(Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
