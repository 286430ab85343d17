package sim

// Queue is a double-ended ring buffer, the one FIFO under the
// simulator's wait lists, run queues, message buffers and admission
// queues. Its capacity is zero or a power of two and doubles when full,
// so steady push/pop cycles allocate nothing; popped slots are zeroed so
// the ring keeps no stale pointers alive. The zero value is empty.
type Queue[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// PushBack appends v as the newest element.
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PopFront removes and returns the oldest element. It panics on an
// empty queue.
func (q *Queue[T]) PopFront() T {
	p := q.At(0)
	v := *p
	var zero T
	*p = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopBack removes and returns the newest element. It panics on an empty
// queue.
func (q *Queue[T]) PopBack() T {
	p := q.At(q.n - 1)
	v := *p
	var zero T
	*p = zero
	q.n--
	return v
}

// At returns a pointer to the i-th oldest element (0 is the front), for
// reading or overwriting in place. It panics unless 0 <= i < Len().
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("sim: Queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the ring (minimum 4 slots), unwrapping the elements to
// the start of the new buffer.
func (q *Queue[T]) grow() {
	nb := make([]T, max(4, 2*len(q.buf)))
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
}
