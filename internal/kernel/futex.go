package kernel

import (
	"slices"

	"repro/internal/stats"
)

// TQueue is a FIFO wait queue of kernel threads — the building block of
// futexes, pipes and socket buffers. Pops advance a head index over a
// reused backing array instead of re-slicing the base away, so the
// steady block/wake cycles of the IPC benchmarks stop regrowing the
// slice (the old `ts = ts[1:]` form forced append to reallocate every
// few wakes under sustained churn).
type TQueue struct {
	ts   []*Thread
	head int
}

// Len returns the number of queued threads.
func (q *TQueue) Len() int { return len(q.ts) - q.head }

// BlockOn parks t on the queue; the value passed to the waking WakeOne /
// WakeAll is returned.
func (q *TQueue) BlockOn(t *Thread) any {
	return t.Block(func() { q.ts = append(q.ts, t) })
}

// pop removes and returns the oldest queued thread, reclaiming the dead
// prefix when the queue drains or the prefix dominates the array.
func (q *TQueue) pop() *Thread {
	t := q.ts[q.head]
	q.ts[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.ts):
		q.ts = q.ts[:0]
		q.head = 0
	case q.head >= 32 && q.head*2 >= len(q.ts):
		n := copy(q.ts, q.ts[q.head:])
		clearTail := q.ts[n:]
		for i := range clearTail {
			clearTail[i] = nil
		}
		q.ts = q.ts[:n]
		q.head = 0
	}
	return t
}

// WakeOne wakes the oldest queued thread. waker attributes IPI cost.
func (q *TQueue) WakeOne(data any, waker *Thread) bool {
	for q.Len() > 0 {
		if q.pop().Wake(data, waker) {
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
	pending []uint64
	waiters TQueue
}

// Submit delivers id to a waiting thread, or queues it.
func (in *Inbox) Submit(id uint64) {
	if in.waiters.WakeOne(id, nil) {
		return
	}
	in.pending = append(in.pending, id)
}

// Recv returns the oldest queued ID, blocking t until one arrives.
func (in *Inbox) Recv(t *Thread) uint64 {
	if len(in.pending) > 0 {
		id := in.pending[0]
		in.pending = slices.Delete(in.pending, 0, 1)
		return id
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
