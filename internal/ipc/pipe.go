package ipc

import (
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Pipe is a kernel byte pipe: writers copy data into a bounded kernel
// buffer, readers copy it out — two kernel-mediated copies per transfer,
// which is exactly the "argument immutability" cost the paper attributes
// to copying IPC primitives (§2.2).
type Pipe struct {
	capacity int
	buffered int
	readers  kernel.TQueue
	writers  kernel.TQueue
}

// NewPipe returns a pipe with the given kernel buffer capacity (64 KB by
// default, like Linux).
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		capacity = 64 << 10
	}
	return &Pipe{capacity: capacity}
}

// Write copies n bytes into the pipe, blocking while the buffer is full.
func (p *Pipe) Write(t *kernel.Thread, n int) {
	prm := t.Machine().P
	t.Syscall(func() {
		t.Exec(prm.PipeKernel, stats.BlockKernel)
		for n > 0 {
			for p.buffered >= p.capacity {
				p.writers.BlockOn(t)
			}
			chunk := n
			if free := p.capacity - p.buffered; chunk > free {
				chunk = free
			}
			t.Exec(prm.KernelCopy(chunk), stats.BlockKernel)
			p.buffered += chunk
			n -= chunk
			p.readers.WakeOne(nil, t)
		}
	})
}

// Read copies up to n bytes out of the pipe, blocking while it is empty,
// and returns the number of bytes read (one chunk, like read(2)).
func (p *Pipe) Read(t *kernel.Thread, n int) int {
	prm := t.Machine().P
	var got int
	t.Syscall(func() {
		t.Exec(prm.PipeKernel, stats.BlockKernel)
		for p.buffered == 0 {
			p.readers.BlockOn(t)
		}
		got = n
		if got > p.buffered {
			got = p.buffered
		}
		t.Exec(prm.KernelCopy(got), stats.BlockKernel)
		p.buffered -= got
		p.writers.WakeOne(nil, t)
	})
	return got
}

// ReadFull reads exactly n bytes, looping over short reads.
func (p *Pipe) ReadFull(t *kernel.Thread, n int) {
	for n > 0 {
		n -= p.Read(t, n)
	}
}
