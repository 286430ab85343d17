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
// through one WaitQueue under Run: wakeAll sweeps refill the ring while
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
		wakeAll(&q)
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
// when it fires; the re-armed ones share one delay, so they wait on a
// timer lane rather than in the heap. One op is one Sleep.
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
// procs pass one token round a ring, each waking the next on the word
// lane and parking until the token comes round again. One op is one
// handoff.
func BenchmarkEngineHandoffRing(b *testing.B) {
	const procs = 8
	e := NewEngine(1)
	var ring [procs]Waiter
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
			wait := func() uint64 {
				ring[i] = p.PrepareWait()
				tok, _ := p.WaitU64()
				return tok
			}
			tok := uint64(0)
			if i > 0 {
				tok = wait()
			}
			for tok < n {
				next.WakeU64(0, tok+1)
				tok = wait()
			}
			next.WakeU64(0, tok) // pass the end on round the ring
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

// BenchmarkEngineTimeoutChurn measures the reply-before-deadline
// pattern of the off-machine clients under Run: every op arms a
// deadline callback a second out, which loses to the reply a nanosecond
// later and runs as a no-op when its time comes. The deadlines share
// one delay, so they wait on one timer lane: each lands at the back of
// its ring, and the heap holds the lane's earliest entry alone. One op
// is one reply.
func BenchmarkEngineTimeoutChurn(b *testing.B) {
	e := NewEngine(1)
	var issued, replied uint64
	var reply, timeout func(uint64)
	issue := func() {
		issued++
		e.AtU64(Second, timeout, issued)
		e.AtU64(Nanosecond, reply, issued)
	}
	timeout = func(id uint64) {
		if id > replied {
			b.Error("a deadline beat its reply")
		}
	}
	reply = func(id uint64) {
		replied = id
		if id < uint64(b.N) {
			issue()
		}
	}
	e.At(0, issue)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineSessionDeadlines reproduces the event shape of the
// open-loop workload: 64 callback sessions each arm a 2 ms deadline and
// wake a worker proc, which completes the request after a chain of
// five Sleeps of about 2 µs, long before the deadline, by scheduling
// the session's completion callback. Every op leaves one deadline to
// lose, so some 200 losing deadlines per session are queued at any
// time; they wait on one timer lane while the workers' wakeups cycle
// through the heap. One op is one completed request.
func BenchmarkEngineSessionDeadlines(b *testing.B) {
	e := NewEngine(1)
	const sessions = 64
	n := 0
	for i := 0; i < sessions; i++ {
		step := 2*Microsecond + Time(i)*Nanosecond
		var idle Waiter    // the worker's wake handle
		var seq, id uint64 // requests issued; the outstanding one's ID
		var done, timeout func(uint64)
		e.Spawn("worker", 0, func(p *Proc) {
			for {
				idle = p.PrepareWait()
				p.Wait()
				for k := 0; k < 5; k++ {
					p.Sleep(step)
				}
				e.AtU64(0, done, id)
			}
		})
		issue := func() {
			seq++
			id = seq
			e.AtU64(2*Millisecond, timeout, id)
			idle.Wake(0, nil)
		}
		done = func(v uint64) {
			if v != id {
				return
			}
			id = 0
			if n++; n < b.N {
				issue()
			}
		}
		timeout = func(v uint64) {
			if v == id {
				b.Error("a session deadline fired")
			}
		}
		e.At(Time(1+i)*Nanosecond, issue)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run() // the workers stay parked: Run reports them, Close unwinds them
	b.StopTimer()
	e.Close()
}
