package kernel

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// TQueue is a FIFO wait queue of kernel threads — the building block of
// futexes, pipes and socket buffers.
type TQueue struct{ ts sim.Queue[*Thread] }

// Len returns the number of queued threads.
func (q *TQueue) Len() int { return q.ts.Len() }

// BlockOn parks t on the queue; the value passed to the waking WakeOne /
// WakeAll is returned.
func (q *TQueue) BlockOn(t *Thread) any {
	return t.Block(func() { q.ts.PushBack(t) })
}

// WakeOne wakes the oldest queued thread. waker attributes IPI cost.
func (q *TQueue) WakeOne(data any, waker *Thread) bool {
	for q.Len() > 0 {
		if q.ts.PopFront().Wake(data, waker) {
			return true
		}
	}
	return false
}

// WakeAll wakes every queued thread.
func (q *TQueue) WakeAll(data any, waker *Thread) int {
	n := 0
	for q.Len() > 0 {
		if q.WakeOne(data, waker) {
			n++
		}
	}
	return n
}

// Inbox is a mailbox of uint64 request IDs arriving off a network
// link: an ID hands off directly to the oldest waiting thread or queues
// until one asks. It charges nothing; callers model the costs.
type Inbox struct {
	pending sim.Queue[uint64]
	waiters TQueue
}

// Submit delivers id to a waiting thread, or queues it.
func (in *Inbox) Submit(id uint64) {
	if in.waiters.WakeOne(id, nil) {
		return
	}
	in.pending.PushBack(id)
}

// Recv returns the oldest queued ID, blocking t until one arrives.
func (in *Inbox) Recv(t *Thread) uint64 {
	if in.pending.Len() > 0 {
		return in.pending.PopFront()
	}
	return in.waiters.BlockOn(t).(uint64)
}

// Futex is the kernel side of the futex(2) facility: a value checked
// under the kernel lock plus a wait queue. POSIX semaphores in the
// baseline IPC suite are built on it (§2.2 "Sem.: POSIX semaphores
// (using futex)").
type Futex struct {
	Val int64
	q   TQueue
}

// WaitIf blocks t while the futex value equals expect, charging the
// kernel-path cost. It must be called inside a Syscall body. The check
// and the enqueue are atomic with respect to simulated time.
func (f *Futex) WaitIf(t *Thread, expect int64) {
	t.Exec(t.m.P.FutexWait, stats.BlockKernel)
	if f.Val != expect {
		return
	}
	f.q.BlockOn(t)
}

// Wake wakes up to n waiters, charging the kernel-path cost, and returns
// how many were woken. It must be called inside a Syscall body.
func (f *Futex) Wake(t *Thread, n int) int {
	t.Exec(t.m.P.FutexWake, stats.BlockKernel)
	woken := 0
	for woken < n && f.q.WakeOne(nil, t) {
		woken++
	}
	return woken
}

// Waiters returns the number of blocked waiters.
func (f *Futex) Waiters() int { return f.q.Len() }
