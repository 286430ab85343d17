package ipc

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newMachine(ncpus int) (*sim.Engine, *kernel.Machine) {
	eng := sim.NewEngine(7)
	m := kernel.NewMachine(eng, cost.Default(), ncpus)
	return eng, m
}

func TestSemaphorePingPong(t *testing.T) {
	eng, m := newMachine(1)
	p1 := m.NewProcess("caller")
	p2 := m.NewProcess("callee")
	req := NewSemaphore(0)
	rsp := NewSemaphore(0)
	buf := NewSharedBuffer(4096)
	const rounds = 50
	done := 0
	m.Spawn(p1, "caller", m.CPUs[0], func(th *kernel.Thread) {
		for i := 0; i < rounds; i++ {
			buf.Write(th, 1)
			req.Post(th)
			rsp.Wait(th)
			done++
		}
	})
	m.Spawn(p2, "callee", m.CPUs[0], func(th *kernel.Thread) {
		for i := 0; i < rounds; i++ {
			req.Wait(th)
			buf.Read(th)
			rsp.Post(th)
		}
	})
	eng.Run()
	if done != rounds {
		t.Fatalf("done = %d, want %d", done, rounds)
	}
	bd := m.Snapshot()
	if bd[stats.BlockPT] == 0 {
		t.Fatal("same-CPU cross-process ping-pong must switch page tables")
	}
	if bd[stats.BlockSched] == 0 || bd[stats.BlockKernel] == 0 {
		t.Fatal("missing scheduling/kernel accounting")
	}
}

func TestSemaphoreNoBlockWhenPositive(t *testing.T) {
	eng, m := newMachine(1)
	p := m.NewProcess("p")
	s := NewSemaphore(2)
	var dur sim.Time
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		start := eng.Now()
		s.Wait(th)
		s.Wait(th)
		dur = eng.Now() - start
	})
	eng.Run()
	if s.val != 0 {
		t.Fatalf("value = %d", s.val)
	}
	// Two fast-path waits: just two atomics, no syscalls.
	if dur > 2*cost.Default().AtomicOp {
		t.Fatalf("fast path took %v", dur)
	}
}

func TestPipeTransfersAndBlocks(t *testing.T) {
	eng, m := newMachine(2)
	p1 := m.NewProcess("w")
	p2 := m.NewProcess("r")
	pipe := NewPipe(1 << 10) // tiny: forces writer to block
	var received int
	m.Spawn(p1, "writer", m.CPUs[0], func(th *kernel.Thread) {
		pipe.Write(th, 4<<10) // 4x the capacity
	})
	m.Spawn(p2, "reader", m.CPUs[1], func(th *kernel.Thread) {
		th.SleepFor(5 * sim.Microsecond) // let the writer fill and block
		for received < 4<<10 {
			received += pipe.Read(th, 64<<10)
		}
	})
	eng.Run()
	if received != 4<<10 {
		t.Fatalf("received = %d", received)
	}
	if pipe.buffered != 0 {
		t.Fatalf("pipe left %d bytes", pipe.buffered)
	}
}

func TestPipeChargesKernelCopies(t *testing.T) {
	eng, m := newMachine(1)
	p := m.NewProcess("p")
	pipe := NewPipe(64 << 10)
	m.Spawn(p, "t", nil, func(th *kernel.Thread) {
		pipe.Write(th, 4096)
		pipe.Read(th, 4096)
	})
	eng.Run()
	bd := m.Snapshot()
	prm := cost.Default()
	minKernel := 2*prm.KernelCopy(4096) + 2*prm.PipeKernel
	if bd[stats.BlockKernel] < minKernel {
		t.Fatalf("kernel time %v below copy floor %v", bd[stats.BlockKernel], minKernel)
	}
}

func TestSocketMessageBoundaries(t *testing.T) {
	eng, m := newMachine(2)
	p1 := m.NewProcess("a")
	p2 := m.NewProcess("b")
	conn := NewConn(0)
	var got []string
	m.Spawn(p1, "sender", m.CPUs[0], func(th *kernel.Thread) {
		conn.AtoB.Send(th, Message{Size: 10, Payload: "first"})
		conn.AtoB.Send(th, Message{Size: 20, Payload: "second"})
	})
	m.Spawn(p2, "receiver", m.CPUs[1], func(th *kernel.Thread) {
		got = append(got, conn.AtoB.Recv(th).Payload.(string))
		got = append(got, conn.AtoB.Recv(th).Payload.(string))
	})
	eng.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
}

func TestL4CallReplySameCPU(t *testing.T) {
	eng, m := newMachine(1)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	ep := &L4Endpoint{}
	const rounds = 20
	var replies int
	m.Spawn(ps, "server", m.CPUs[0], func(th *kernel.Thread) {
		msg := ep.Wait(th)
		for {
			msg = ep.ReplyWait(th, msg.(int)*2)
		}
	})
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		th.ExecUser(100 * sim.Nanosecond) // let the server park first
		for i := 0; i < rounds; i++ {
			r := ep.Call(th, i)
			if r.(int) != i*2 {
				t.Errorf("reply %d = %v", i, r)
			} else {
				replies++
			}
		}
	})
	eng.Run()
	if replies != rounds {
		t.Fatalf("replies = %d, want %d", replies, rounds)
	}
}

func TestL4FastPathBeatsSemaphore(t *testing.T) {
	// §2.2: L4 minimizes kernel software overheads; a same-CPU L4 round
	// trip must be substantially cheaper than the semaphore ping-pong.
	l4 := measureL4(t, true)
	sem := measureSem(t, true)
	if float64(l4) > 0.8*float64(sem) {
		t.Fatalf("L4 (%v) not clearly faster than semaphores (%v)", l4, sem)
	}
}

// measureL4 returns the mean round-trip time of an L4 call.
func measureL4(t *testing.T, sameCPU bool) sim.Time {
	t.Helper()
	eng, m := newMachine(2)
	pc := m.NewProcess("client")
	ps := m.NewProcess("server")
	ep := &L4Endpoint{}
	serverCPU := m.CPUs[0]
	if !sameCPU {
		serverCPU = m.CPUs[1]
	}
	const rounds = 200
	var total sim.Time
	m.Spawn(ps, "server", serverCPU, func(th *kernel.Thread) {
		msg := ep.Wait(th)
		for {
			if msg == nil {
				return
			}
			msg = ep.ReplyWait(th, msg)
		}
	})
	m.Spawn(pc, "client", m.CPUs[0], func(th *kernel.Thread) {
		th.ExecUser(sim.Microsecond)
		for i := 0; i < 20; i++ { // warmup
			ep.Call(th, 1)
		}
		start := eng.Now()
		for i := 0; i < rounds; i++ {
			ep.Call(th, 1)
		}
		total = eng.Now() - start
	})
	eng.RunUntil(sim.Second)
	return total / rounds
}

// measureSem returns the mean round-trip time of the semaphore ping-pong.
func measureSem(t *testing.T, sameCPU bool) sim.Time {
	t.Helper()
	eng, m := newMachine(2)
	p1 := m.NewProcess("caller")
	p2 := m.NewProcess("callee")
	req, rsp := NewSemaphore(0), NewSemaphore(0)
	buf := NewSharedBuffer(4096)
	calleeCPU := m.CPUs[0]
	if !sameCPU {
		calleeCPU = m.CPUs[1]
	}
	const rounds = 200
	var total sim.Time
	m.Spawn(p2, "callee", calleeCPU, func(th *kernel.Thread) {
		for {
			req.Wait(th)
			buf.Read(th)
			rsp.Post(th)
		}
	})
	m.Spawn(p1, "caller", m.CPUs[0], func(th *kernel.Thread) {
		th.ExecUser(sim.Microsecond)
		for i := 0; i < 20; i++ {
			buf.Write(th, 1)
			req.Post(th)
			rsp.Wait(th)
		}
		start := eng.Now()
		for i := 0; i < rounds; i++ {
			buf.Write(th, 1)
			req.Post(th)
			rsp.Wait(th)
		}
		total = eng.Now() - start
	})
	eng.RunUntil(sim.Second)
	return total / rounds
}

func TestCrossCPUSlowerThanSameCPU(t *testing.T) {
	semSame := measureSem(t, true)
	semCross := measureSem(t, false)
	if semCross <= semSame {
		t.Fatalf("cross-CPU sem (%v) not slower than same-CPU (%v)", semCross, semSame)
	}
	l4Same := measureL4(t, true)
	l4Cross := measureL4(t, false)
	if l4Cross <= l4Same {
		t.Fatalf("cross-CPU L4 (%v) not slower than same-CPU (%v)", l4Cross, l4Same)
	}
}

func TestSemRoundTripNearPaperAnchor(t *testing.T) {
	// Fig. 5: semaphore same-CPU round trip ≈ 757× a 2ns function call
	// (~1.5us). The model gives ~1.84us; accept a generous band.
	rt := measureSem(t, true)
	ns := rt.Nanoseconds()
	if ns < 900 || ns > 2300 {
		t.Fatalf("sem round trip = %.0fns, want ~1514ns (paper Fig. 5)", ns)
	}
}

func TestL4RoundTripNearPaperAnchor(t *testing.T) {
	// §2.2: L4 same-CPU ≈ 474× a 2ns function call (~950ns).
	rt := measureL4(t, true)
	ns := rt.Nanoseconds()
	if ns < 600 || ns > 1400 {
		t.Fatalf("L4 round trip = %.0fns, want ~948ns (paper §2.2)", ns)
	}
}
