// Package ipc implements the baseline inter-process communication
// primitives the paper compares dIPC against (§2.2, Fig. 2): POSIX
// semaphores over futexes with a pre-shared buffer, pipes, UNIX stream
// sockets, and L4-style synchronous IPC. All of them run on the
// simulated kernel and charge their costs into the paper's accounting
// blocks, so the Fig. 2 breakdown falls out of the implementations.
package ipc

import (
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Semaphore is a POSIX semaphore: a user-space counter with a futex slow
// path ("Sem.: POSIX semaphores (using futex) communicating through a
// shared buffer", §2.2).
type Semaphore struct {
	val int64
	q   kernel.TQueue
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(initial int) *Semaphore {
	return &Semaphore{val: int64(initial)}
}

// Wait decrements the semaphore, blocking while it is zero. The fast
// path is one user-level atomic; the slow path is a futex syscall.
func (s *Semaphore) Wait(t *kernel.Thread) {
	t.Exec(t.Machine().P.AtomicOp, stats.BlockUser)
	if s.val > 0 {
		s.val--
		return
	}
	t.Syscall(func() {
		t.Exec(t.Machine().P.FutexWait, stats.BlockKernel)
		// FUTEX_WAIT re-checks the value under the hash-bucket lock:
		// a Post that raced with the user-level check must not be
		// lost. A Post that finds us queued hands the count over
		// directly, so no retry loop is needed after waking.
		if s.val > 0 {
			s.val--
			return
		}
		s.q.BlockOn(t)
	})
}

// Post increments the semaphore, waking one waiter if any.
func (s *Semaphore) Post(t *kernel.Thread) {
	t.Exec(t.Machine().P.AtomicOp, stats.BlockUser)
	if s.q.Len() == 0 {
		s.val++
		return
	}
	t.Syscall(func() {
		t.Exec(t.Machine().P.FutexWake, stats.BlockKernel)
		s.q.WakeOne(nil, t)
	})
}

// SharedBuffer models the pre-agreed shared-memory region the semaphore
// baseline passes data through. The sender and the receiver each pay a
// user-level copy to populate and read it (§7.2: "the programmer still
// has to populate the shared buffer").
type SharedBuffer struct {
	Size int
	used int
}

// NewSharedBuffer returns a buffer of the given capacity.
func NewSharedBuffer(size int) *SharedBuffer { return &SharedBuffer{Size: size} }

// Write charges the user-level copy of n bytes into the buffer.
func (b *SharedBuffer) Write(t *kernel.Thread, n int) {
	if n > b.Size {
		n = b.Size
	}
	b.used = n
	t.Exec(t.Machine().P.Copy(n), stats.BlockUser)
}

// Read charges the user-level copy of the buffered bytes out.
func (b *SharedBuffer) Read(t *kernel.Thread) int {
	t.Exec(t.Machine().P.Copy(b.used), stats.BlockUser)
	return b.used
}
