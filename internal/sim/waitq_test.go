package sim

import "testing"

// wakeAll wakes every valid waiter on q now, one WakeOne at a time,
// and returns how many it woke.
func wakeAll(q *WaitQueue) int {
	n := 0
	for q.WakeOne(0, nil) {
		n++
	}
	return n
}

// TestWaitQueueRingWraparound cycles far more Wait/WakeOne pairs than the
// ring's capacity while keeping a few waiters resident, so head repeatedly
// wraps past the end of the buffer; FIFO order must survive every wrap.
func TestWaitQueueRingWraparound(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []int
	const workers = 3
	const rounds = 50 // 150 wakeups through a ring that stays tiny
	for i := 0; i < workers; i++ {
		i := i
		e.Spawn("w", Time(i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				q.Wait(p)
				order = append(order, i)
			}
		})
	}
	e.Spawn("waker", 10, func(p *Proc) {
		for r := 0; r < workers*rounds; r++ {
			if !q.WakeOne(0, nil) {
				t.Errorf("wake %d found no waiter", r)
				return
			}
			p.Sleep(1)
		}
	})
	e.Run()
	if len(order) != workers*rounds {
		t.Fatalf("got %d wakeups, want %d", len(order), workers*rounds)
	}
	for i, v := range order {
		if v != i%workers {
			t.Fatalf("FIFO broken at wake %d: got worker %d, want %d (order %v...)",
				i, v, i%workers, order[:i+1])
		}
	}
	if q.q.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", q.q.Len())
	}
}

// TestWaitQueueMixedTimeoutWakeAll stresses the ring under the full op
// mix: plain Waits, timed waits that expire (a spent waiter stays
// queued mid-ring), timed waits that are woken early (stale deadline
// left in the engine heap), and wakeAll sweeps that empty the ring.
func TestWaitQueueMixedTimeoutWakeAll(t *testing.T) {
	e := NewEngine(7)
	var q WaitQueue
	timeouts, wakes := 0, 0
	const workers = 8
	for i := 0; i < workers; i++ {
		i := i
		e.Spawn("w", Time(i), func(p *Proc) {
			for r := 0; r < 30; r++ {
				if i%2 == 0 {
					// Short timeout: sometimes expires before the sweep.
					if _, ok := waitTimeout(&q, p, Time(20+i)); ok {
						wakes++
					} else {
						timeouts++
					}
				} else {
					q.Wait(p)
					wakes++
				}
			}
		})
	}
	e.Spawn("sweeper", 15, func(p *Proc) {
		for e.live > 1 {
			wakeAll(&q)
			p.Sleep(35)
		}
	})
	e.Run()
	if got := timeouts + wakes; got != workers*30 {
		t.Fatalf("completed %d waits (%d timeouts, %d wakes), want %d",
			got, timeouts, wakes, workers*30)
	}
	if timeouts == 0 {
		t.Fatal("schedule never exercised the timeout/remove path")
	}
	if q.q.Len() != 0 {
		t.Fatalf("Len() = %d after all procs finished, want 0", q.q.Len())
	}
	if e.events.live() != 0 {
		t.Fatalf("live events = %d after Run, want 0", e.events.live())
	}
}

// TestWaitQueueSkipsSpentMidRing checks a timed-out waiter that is
// neither the oldest nor the newest: it stays queued, spent, the two
// neighbours keep their FIFO positions, and WakeOne skips it.
func TestWaitQueueSkipsSpentMidRing(t *testing.T) {
	e := NewEngine(3)
	var q WaitQueue
	var order []string
	e.Spawn("a", 0, func(p *Proc) { q.Wait(p); order = append(order, "a") })
	e.Spawn("b", 1, func(p *Proc) {
		if _, ok := waitTimeout(&q, p, 10); ok {
			t.Error("b should have timed out")
		}
		order = append(order, "b-timeout")
	})
	e.Spawn("c", 2, func(p *Proc) { q.Wait(p); order = append(order, "c") })
	e.Spawn("observer", 12, func(p *Proc) { // after b's t=11 timeout
		if q.q.Len() != 3 {
			t.Errorf("Len() = %d after mid-ring timeout, want 3 (b still queued)", q.q.Len())
		}
		q.WakeOne(0, nil)
		p.Sleep(1)
		if !q.WakeOne(0, nil) || q.q.Len() != 0 {
			t.Error("the second WakeOne did not skip b to wake c")
		}
	})
	e.Run()
	want := []string{"b-timeout", "a", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
