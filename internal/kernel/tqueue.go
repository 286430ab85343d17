package kernel

import "repro/internal/sim"

// TQueue is a FIFO wait queue of kernel threads — the building block of
// semaphores, pipes and socket buffers.
type TQueue struct{ ts sim.Queue[*Thread] }

// Len returns the number of queued threads.
func (q *TQueue) Len() int { return q.ts.Len() }

// BlockOn parks t on the queue; the value passed to the waking WakeOne
// is returned.
func (q *TQueue) BlockOn(t *Thread) any {
	return t.Block(func() { q.ts.PushBack(t) })
}

// BlockOnU64 is BlockOn for the word lane: it returns the word passed
// to the waking WakeOneU64, and whether the wake carried one.
func (q *TQueue) BlockOnU64(t *Thread) (uint64, bool) {
	return t.BlockU64(func() { q.ts.PushBack(t) })
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

// WakeOneU64 is WakeOne with an unboxed word, for BlockOnU64.
//
//dipcvet:noalloc
func (q *TQueue) WakeOneU64(v uint64, waker *Thread) bool {
	for q.Len() > 0 {
		if q.ts.PopFront().WakeU64(v, waker) {
			return true
		}
	}
	return false
}

// Inbox is a mailbox of uint64 request IDs arriving off a network
// link: an ID hands off directly to the oldest waiting thread or queues
// until one asks. It charges nothing; callers model the costs.
type Inbox struct {
	pending sim.Queue[uint64]
	waiters TQueue
}

// Submit delivers id to a waiting thread, or queues it.
//
//dipcvet:noalloc
func (in *Inbox) Submit(id uint64) {
	if in.waiters.WakeOneU64(id, nil) {
		return
	}
	in.pending.PushBack(id)
}

// Recv returns the oldest queued ID, blocking t until one arrives.
//
//dipcvet:noalloc
func (in *Inbox) Recv(t *Thread) uint64 {
	if in.pending.Len() > 0 {
		return in.pending.PopFront()
	}
	id, _ := in.waiters.BlockOnU64(t)
	return id
}
