package kernel

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

func newTestMachine(ncpus int) (*sim.Engine, *Machine) {
	eng := sim.NewEngine(1)
	m := NewMachine(eng, cost.Default(), ncpus)
	return eng, m
}

func TestExecAdvancesTimeAndAccounts(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	var dur sim.Time
	m.Spawn(p, "worker", nil, func(th *Thread) {
		start := eng.Now() // after initial dispatch latency
		th.ExecUser(100 * sim.Nanosecond)
		dur = eng.Now() - start
	})
	eng.Run()
	if dur != 100*sim.Nanosecond {
		t.Fatalf("exec duration = %v, want 100ns", dur)
	}
	bd := m.Snapshot()
	if bd[stats.BlockUser] != 100*sim.Nanosecond {
		t.Fatalf("user time = %v, want 100ns", bd[stats.BlockUser])
	}
}

func TestEmptySyscallAnchor(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	var dur sim.Time
	m.Spawn(p, "worker", nil, func(th *Thread) {
		start := eng.Now()
		th.Syscall(nil)
		dur = eng.Now() - start
	})
	eng.Run()
	ns := dur.Nanoseconds()
	if ns < 30 || ns > 38 {
		t.Fatalf("empty syscall = %.1fns, want ~34ns (§2.2)", ns)
	}
}

func TestRoundRobinOnQuantumExpiry(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	cpu := m.CPUs[0]
	var aDone, bDone sim.Time
	m.Spawn(p, "a", cpu, func(th *Thread) {
		th.ExecUser(3 * sim.Millisecond)
		aDone = eng.Now()
	})
	m.Spawn(p, "b", cpu, func(th *Thread) {
		th.ExecUser(3 * sim.Millisecond)
		bDone = eng.Now()
	})
	eng.Run()
	// Interleaved on 1ms quanta: both finish near 6ms, not at 3 and 6.
	if aDone < 5*sim.Millisecond || bDone < 5*sim.Millisecond {
		t.Fatalf("no round robin: a=%v b=%v", aDone, bDone)
	}
	if aDone >= bDone {
		t.Fatalf("a started first, must finish first: a=%v b=%v", aDone, bDone)
	}
}

func TestBlockWakeAcrossThreads(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	var q TQueue
	var got any
	m.Spawn(p, "sleeper", nil, func(th *Thread) {
		got = q.BlockOn(th)
	})
	m.Spawn(p, "waker", nil, func(th *Thread) {
		th.ExecUser(50 * sim.Nanosecond)
		q.WakeOne("token", th)
	})
	eng.Run()
	if got != "token" {
		t.Fatalf("got %v, want token", got)
	}
}

func TestFutexWaitWake(t *testing.T) {
	eng, m := newTestMachine(2)
	p := m.NewProcess("p")
	f := &Futex{Val: 0}
	var order []string
	m.Spawn(p, "waiter", m.CPUs[0], func(th *Thread) {
		th.Syscall(func() { f.WaitIf(th, 0) })
		order = append(order, "woken")
	})
	m.Spawn(p, "poster", m.CPUs[1], func(th *Thread) {
		// Long enough that the waiter is certainly parked (its own
		// dispatch latency plus the futex kernel path are ~1.2us).
		th.ExecUser(10 * sim.Microsecond)
		f.Val = 1
		th.Syscall(func() {
			if n := f.Wake(th, 1); n != 1 {
				t.Errorf("Wake = %d, want 1", n)
			}
		})
		order = append(order, "posted")
	})
	eng.Run()
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	// Value mismatch must not block.
	m2eng, m2 := newTestMachine(1)
	p2 := m2.NewProcess("p")
	f2 := &Futex{Val: 7}
	ran := false
	m2.Spawn(p2, "t", nil, func(th *Thread) {
		th.Syscall(func() { f2.WaitIf(th, 0) })
		ran = true
	})
	m2eng.Run()
	if !ran {
		t.Fatal("WaitIf blocked despite value mismatch")
	}
}

func TestIdleAccounting(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	m.Spawn(p, "napper", nil, func(th *Thread) {
		th.ExecUser(100 * sim.Nanosecond)
		th.SleepFor(800 * sim.Nanosecond) // CPU idles
		th.ExecUser(100 * sim.Nanosecond)
	})
	eng.Run()
	bd := m.Snapshot()
	if bd[stats.BlockUser] != 200*sim.Nanosecond {
		t.Fatalf("user = %v", bd[stats.BlockUser])
	}
	idle := bd[stats.BlockIdle]
	if idle < 400*sim.Nanosecond || idle > 800*sim.Nanosecond {
		t.Fatalf("idle = %v, want most of the 800ns sleep", idle)
	}
}

func TestCrossCPUWakeChargesIPI(t *testing.T) {
	// Same-CPU wake vs cross-CPU wake of an idle CPU: the latter must
	// be slower by roughly the IPI costs (§2.2: "Going across CPUs is
	// even more expensive").
	measure := func(sameCPU bool) sim.Time {
		eng, m := newTestMachine(2)
		p := m.NewProcess("p")
		var q TQueue
		var wokenAt sim.Time
		sleeperCPU := m.CPUs[0]
		wakerCPU := m.CPUs[1]
		if sameCPU {
			wakerCPU = m.CPUs[0]
		}
		m.Spawn(p, "sleeper", sleeperCPU, func(th *Thread) {
			q.BlockOn(th)
			wokenAt = eng.Now()
		})
		m.Spawn(p, "waker", wakerCPU, func(th *Thread) {
			th.ExecUser(100 * sim.Nanosecond)
			q.WakeOne(nil, th)
			th.ExecUser(100 * sim.Nanosecond)
		})
		eng.Run()
		return wokenAt
	}
	same := measure(true)
	cross := measure(false)
	p := cost.Default()
	if cross <= same {
		t.Fatalf("cross-CPU wake (%v) not slower than same-CPU (%v)", cross, same)
	}
	if cross-same < p.IPISend {
		t.Fatalf("cross-CPU extra = %v, want at least IPISend %v", cross-same, p.IPISend)
	}
}

func TestPageTableSwitchOnlyAcrossAddressSpaces(t *testing.T) {
	run := func(shared bool) sim.Time {
		eng, m := newTestMachine(1)
		var pa, pb *Process
		if shared {
			pt := mem.NewPageTable()
			pa = m.NewDIPCProcess("a", pt)
			pb = m.NewDIPCProcess("b", pt)
		} else {
			pa = m.NewProcess("a")
			pb = m.NewProcess("b")
		}
		var q1, q2 TQueue
		m.Spawn(pa, "t1", m.CPUs[0], func(th *Thread) {
			for i := 0; i < 10; i++ {
				th.ExecUser(10 * sim.Nanosecond)
				q2.WakeOne(nil, th)
				q1.BlockOn(th)
			}
			q2.WakeOne(nil, th)
		})
		m.Spawn(pb, "t2", m.CPUs[0], func(th *Thread) {
			for i := 0; i < 10; i++ {
				q2.BlockOn(th)
				th.ExecUser(10 * sim.Nanosecond)
				q1.WakeOne(nil, th)
			}
		})
		eng.Run()
		bd := m.Snapshot()
		return bd[stats.BlockPT]
	}
	private := run(false)
	sharedPT := run(true)
	if private == 0 {
		t.Fatal("private address spaces incurred no page-table switches")
	}
	if sharedPT != 0 {
		t.Fatalf("shared page table still charged %v of PT switches", sharedPT)
	}
}

func TestStealBalancesLoad(t *testing.T) {
	eng, m := newTestMachine(2)
	p := m.NewProcess("p")
	// Three CPU-bound threads initially placed, no pinning: with steal,
	// total runtime on 2 CPUs should approach work/2.
	const work = 4 * sim.Millisecond
	for i := 0; i < 4; i++ {
		m.Spawn(p, "w", nil, func(th *Thread) {
			th.ExecUser(work)
		})
	}
	eng.Run()
	elapsed := eng.Now()
	// 4 threads × 4ms on 2 CPUs = 8ms ideal.
	if elapsed > 9*sim.Millisecond {
		t.Fatalf("elapsed %v, want near 8ms (load balanced)", elapsed)
	}
}

// An idle CPU steals the most recently queued thread of the longest
// remote run queue.
func TestStealTakesNewestQueued(t *testing.T) {
	eng, m := newTestMachine(2)
	p := m.NewProcess("p")
	cpu0, cpu1 := m.CPUs[0], m.CPUs[1]
	m.Spawn(p, "short", cpu1, func(th *Thread) { th.ExecUser(10 * sim.Microsecond) })
	var stolen []string
	for _, name := range []string{"a", "b", "c", "d"} {
		m.Spawn(p, name, cpu0, func(th *Thread) {
			if th.CPU() == cpu1 {
				stolen = append(stolen, th.Name)
			}
			th.ExecUser(500 * sim.Microsecond)
		})
	}
	eng.RunUntil(100 * sim.Microsecond)
	if len(stolen) != 1 || stolen[0] != "d" {
		t.Fatalf("CPU1 stole %v, want [d] (the newest of a's queue b, c, d)", stolen)
	}
}

func TestPinningRespected(t *testing.T) {
	eng, m := newTestMachine(2)
	p := m.NewProcess("p")
	cpu1 := m.CPUs[1]
	m.Spawn(p, "pinned", cpu1, func(th *Thread) {
		th.ExecUser(sim.Microsecond)
		if th.CPU() != cpu1 {
			t.Errorf("thread ran on CPU %d, pinned to 1", th.CPU().ID)
		}
		th.SleepFor(sim.Microsecond)
		th.ExecUser(sim.Microsecond)
		if th.CPU() != cpu1 {
			t.Errorf("thread migrated off its pin after sleep")
		}
	})
	eng.Run()
	if m.CPUs[0].Acct[stats.BlockUser] != 0 {
		t.Fatal("pinned thread charged CPU 0")
	}
}

func TestFDTable(t *testing.T) {
	_, m := newTestMachine(1)
	p := m.NewProcess("p")
	fd := p.AllocFD("object")
	obj, err := p.GetFD(fd)
	if err != nil || obj != "object" {
		t.Fatalf("GetFD = %v, %v", obj, err)
	}
	if err := p.CloseFD(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GetFD(fd); err == nil {
		t.Fatal("closed fd still resolves")
	}
	if err := p.CloseFD(fd); err == nil {
		t.Fatal("double close must fail")
	}
}

func TestFaultHandlerRecovers(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	recovered := false
	m.Spawn(p, "t", nil, func(th *Thread) {
		th.OnFault = func(err error) bool {
			recovered = true
			return true
		}
		th.Fault(errors.New("synthetic fault"))
		th.ExecUser(10 * sim.Nanosecond)
	})
	eng.Run()
	if !recovered {
		t.Fatal("fault handler not invoked")
	}
}

func TestUnhandledFaultPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unhandled fault must panic the simulation")
		}
	}()
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	m.Spawn(p, "t", nil, func(th *Thread) {
		th.Fault(errors.New("boom"))
	})
	eng.Run()
}

func TestKillProcess(t *testing.T) {
	_, m := newTestMachine(1)
	p := m.NewProcess("p")
	if len(m.procs) != 1 {
		t.Fatal("process not registered")
	}
	m.Kill(p)
	if !p.Dead || len(m.procs) != 0 {
		t.Fatal("kill did not mark/deregister")
	}
}

func TestDIPCProcessSharesGlobalSpace(t *testing.T) {
	_, m := newTestMachine(1)
	pt := mem.NewPageTable()
	a := m.NewDIPCProcess("a", pt)
	b := m.NewDIPCProcess("b", pt)
	if a.PageTable != b.PageTable {
		t.Fatal("dIPC processes must share the page table")
	}
	va1, err := a.VA.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := b.VA.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if va1 == va2 {
		t.Fatal("global VA allocations collide")
	}
	if a.TLSBase == 0 || b.TLSBase == 0 || a.TLSBase == b.TLSBase {
		t.Fatal("TLS segments must be distinct and allocated")
	}
}

func TestSnapshotConservation(t *testing.T) {
	// Busy + idle time across all CPUs must equal CPUs × elapsed
	// (within the dispatch-delay slack the model leaves unaccounted).
	eng, m := newTestMachine(2)
	p := m.NewProcess("p")
	var q TQueue
	m.Spawn(p, "a", m.CPUs[0], func(th *Thread) {
		th.ExecUser(500 * sim.Nanosecond)
		q.WakeOne(nil, th)
		th.ExecUser(200 * sim.Nanosecond)
	})
	m.Spawn(p, "b", m.CPUs[1], func(th *Thread) {
		q.BlockOn(th)
		th.ExecUser(300 * sim.Nanosecond)
	})
	eng.Run()
	bd := m.Snapshot()
	elapsed := eng.Now() * sim.Time(len(m.CPUs))
	if bd.Total() > elapsed {
		t.Fatalf("accounted %v exceeds wall capacity %v", bd.Total(), elapsed)
	}
	if float64(bd.Total()) < 0.7*float64(elapsed) {
		t.Fatalf("accounted %v far below capacity %v: accounting leak", bd.Total(), elapsed)
	}
}

func TestYieldRequeuesFairly(t *testing.T) {
	eng, m := newTestMachine(1)
	p := m.NewProcess("p")
	cpu := m.CPUs[0]
	var order []string
	m.Spawn(p, "a", cpu, func(th *Thread) {
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	m.Spawn(p, "b", cpu, func(th *Thread) {
		order = append(order, "b1")
		th.Yield()
		order = append(order, "b2")
	})
	eng.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
