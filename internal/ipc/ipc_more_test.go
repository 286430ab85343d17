package ipc

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
)

func TestSocketBlocksWhenFull(t *testing.T) {
	eng, m := newMachine(2)
	pa, pb := m.NewProcess("a"), m.NewProcess("b")
	conn := NewConn(100) // tiny buffer
	var sendDone, recvStart sim.Time
	m.Spawn(pa, "sender", m.CPUs[0], func(th *kernel.Thread) {
		conn.AtoB.Send(th, Message{Size: 90, Payload: 1})
		conn.AtoB.Send(th, Message{Size: 90, Payload: 2}) // must block
		sendDone = eng.Now()
	})
	m.Spawn(pb, "receiver", m.CPUs[1], func(th *kernel.Thread) {
		th.SleepFor(100 * sim.Microsecond)
		recvStart = eng.Now()
		conn.AtoB.Recv(th)
		conn.AtoB.Recv(th)
	})
	eng.Run()
	if sendDone < recvStart {
		t.Fatalf("second send (%v) completed before the receiver drained (%v)", sendDone, recvStart)
	}
}

func TestL4MultipleClients(t *testing.T) {
	eng, m := newMachine(2)
	ps := m.NewProcess("s")
	ep := &L4Endpoint{}
	m.Spawn(ps, "server", m.CPUs[0], func(th *kernel.Thread) {
		msg := ep.Wait(th)
		for {
			msg = ep.ReplyWait(th, msg.(int)*10)
		}
	})
	results := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		pc := m.NewProcess("c")
		m.Spawn(pc, "client", m.CPUs[1], func(th *kernel.Thread) {
			th.ExecUser(sim.Microsecond)
			results[i] = ep.Call(th, i+1).(int)
		})
	}
	eng.Run()
	for i, r := range results {
		if r != (i+1)*10 {
			t.Fatalf("client %d got %d", i, r)
		}
	}
}

func TestSemaphoreManyWaitersFIFO(t *testing.T) {
	eng, m := newMachine(1)
	p := m.NewProcess("p")
	s := NewSemaphore(0)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(p, "waiter", nil, func(th *kernel.Thread) {
			th.ExecUser(sim.Time(i+1) * 10 * sim.Nanosecond) // stagger
			s.Wait(th)
			order = append(order, i)
		})
	}
	m.Spawn(p, "poster", nil, func(th *kernel.Thread) {
		th.SleepFor(100 * sim.Microsecond)
		for i := 0; i < 4; i++ {
			s.Post(th)
			th.ExecUser(100 * sim.Nanosecond)
		}
	})
	eng.Run()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestSemaphoreValueNeverNegative(t *testing.T) {
	eng, m := newMachine(2)
	p := m.NewProcess("p")
	s := NewSemaphore(2)
	for i := 0; i < 6; i++ {
		m.Spawn(p, "w", nil, func(th *kernel.Thread) {
			s.Wait(th)
			if s.val < 0 {
				t.Error("semaphore went negative")
			}
			th.ExecUser(sim.Microsecond)
			s.Post(th)
		})
	}
	eng.Run()
	if s.val != 2 {
		t.Fatalf("final value = %d, want 2", s.val)
	}
}

func TestPipePartialReads(t *testing.T) {
	eng, m := newMachine(2)
	pa, pb := m.NewProcess("a"), m.NewProcess("b")
	pipe := NewPipe(0)
	var chunks []int
	m.Spawn(pa, "w", m.CPUs[0], func(th *kernel.Thread) {
		pipe.Write(th, 100)
	})
	m.Spawn(pb, "r", m.CPUs[1], func(th *kernel.Thread) {
		th.SleepFor(50 * sim.Microsecond)
		chunks = append(chunks, pipe.Read(th, 30)) // short read
		chunks = append(chunks, pipe.Read(th, 500))
	})
	eng.Run()
	if len(chunks) != 2 || chunks[0] != 30 || chunks[1] != 70 {
		t.Fatalf("chunks = %v", chunks)
	}
}

func TestSharedBufferClampsToCapacity(t *testing.T) {
	eng, m := newMachine(1)
	p := m.NewProcess("p")
	buf := NewSharedBuffer(64)
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		buf.Write(th, 1000) // larger than capacity
		if n := buf.Read(th); n != 64 {
			t.Errorf("read %d, want clamped 64", n)
		}
	})
	eng.Run()
}
