package sim

import "testing"

func TestQueueFIFOAcrossWrapAndGrowth(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	// Interleave pushes and pops so the head wraps around the ring
	// before, during and after each doubling.
	for round := 1; round <= 40; round++ {
		for i := 0; i < round%7+1; i++ {
			q.PushBack(next)
			next++
		}
		for i := 0; i < round%5 && q.Len() > 0; i++ {
			if got := q.PopFront(); got != want {
				t.Fatalf("round %d: PopFront = %d, want %d", round, got, want)
			}
			want++
		}
		if q.Len() != next-want {
			t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), next-want)
		}
		for i := 0; i < q.Len(); i++ {
			if got := *q.At(i); got != want+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, want+i)
			}
		}
	}
	for q.Len() > 0 {
		if got := q.PopFront(); got != want {
			t.Fatalf("drain: PopFront = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("drained %d of %d", want, next)
	}
}

func TestQueuePopBackReturnsNewest(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 6; i++ {
		q.PushBack(i)
	}
	q.PopFront()
	q.PopFront()
	q.PushBack(6)
	q.PushBack(7) // wraps into the slots the pops freed
	for want := 7; want >= 2; want-- {
		if got := q.PopBack(); got != want {
			t.Fatalf("PopBack = %d, want %d", got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after popping everything", q.Len())
	}
}

func TestQueueZeroesPoppedSlots(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 4)
	for i := range vals {
		q.PushBack(&vals[i])
	}
	q.PopFront()
	q.PopBack()
	for i, p := range q.buf {
		if i != q.head && i != q.head+1 && p != nil {
			t.Fatalf("slot %d still holds a pointer after its pop", i)
		}
	}
	q.PopFront()
	q.PopFront()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer in an empty queue", i)
		}
	}
}

func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.PushBack(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.PushBack(1)
		q.PushBack(2)
		q.PopFront()
		q.PopBack()
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocated %v times per run", allocs)
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	pops := []func(*Queue[int]) int{(*Queue[int]).PopFront, (*Queue[int]).PopBack}
	for i, pop := range pops {
		var q Queue[int]
		q.PushBack(1)
		q.PopFront()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pop %d on an empty queue did not panic", i)
				}
			}()
			pop(&q)
		}()
	}
}
