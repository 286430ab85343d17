package kernel

import (
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CPU is one simulated hardware context. A CPU either runs exactly one
// thread (cur) or idles; runnable threads wait in its FIFO run queue.
type CPU struct {
	ID   int
	m    *Machine
	cur  *Thread
	runq sim.Queue[*Thread]

	idleSince sim.Time
	lastPT    *mem.PageTable // page table of the last thread that ran
	lastProc  *Process       // process of the last thread that ran
	Acct      stats.Breakdown
}

// load is the scheduling pressure metric: 0 when idle.
func (c *CPU) load() int {
	if c.cur == nil {
		return 0
	}
	return 1 + c.runq.Len()
}

// Cur returns the running thread, if any.
func (c *CPU) Cur() *Thread { return c.cur }

// QueueLen returns the run-queue length.
func (c *CPU) QueueLen() int { return c.runq.Len() }

// endIdle accounts an idle period that finishes now.
func (c *CPU) endIdle() {
	now := c.m.Eng.Now()
	if now > c.idleSince {
		c.Acct.Add(stats.BlockIdle, now-c.idleSince)
	}
	c.idleSince = now
}

// reserve claims the CPU for t immediately. It must precede any cost
// accounting that advances simulated time, so that events firing in that
// window see the CPU busy (otherwise two wakeups could double-dispatch
// an idle CPU).
func (c *CPU) reserve(t *Thread) {
	t.state = ThreadRunning
	t.cpu = c
	t.lastCPU = c
	c.cur = t
}

// fire schedules t's actual resumption after delay and finalizes the
// switch bookkeeping. When this CPU switch is the next simulated event,
// the engine loop resumes t's proc coroutine directly — and the common
// nil wakeData travels the engine's unboxed payload lane.
func (c *CPU) fire(t *Thread, delay sim.Time) {
	c.lastPT = t.proc.PageTable
	c.lastProc = t.proc
	t.quantumLeft = c.m.P.QuantumDefault
	t.schedWaiter.Wake(delay, t.wakeData)
	t.wakeData = nil
}

// place makes runnable thread t available on CPU c, dispatching it
// immediately if c is idle. waker is the thread that caused the wakeup
// (nil for device/timer wakeups); a cross-CPU wake of an idle CPU costs
// an IPI, charged to the waker's CPU and to the target's kernel time.
func (c *CPU) place(t *Thread, waker *Thread) {
	t.lastCPU = c
	if c.cur != nil {
		t.cpu = c
		c.runq.PushBack(t)
		return
	}
	// Idle CPU: wake it up and run t directly.
	c.endIdle()
	c.reserve(t)
	p := c.m.P
	delay := p.IdleWake + p.SchedPickNext
	c.Acct.Add(stats.BlockSched, delay)
	if waker != nil && waker.cpu != nil && waker.cpu != c {
		// The waker spends time issuing the IPI; the target spends
		// time handling it before the thread can run. A waker that has
		// already left its CPU (wake-then-block handoff) only charges
		// the bucket.
		if waker.state == ThreadRunning {
			waker.Exec(p.IPISend, stats.BlockKernel)
		} else {
			c.Acct.Add(stats.BlockKernel, p.IPISend)
		}
		c.Acct.Add(stats.BlockKernel, p.IPIHandle)
		delay += p.IPIHandle
	}
	delay += c.switchCost(t)
	c.fire(t, delay)
}

// switchCost accounts (and returns) the cost of switching this CPU to
// thread t: register state, plus process-descriptor and page-table work
// when the address space changes. dIPC-enabled processes share one page
// table, so switching between them skips the page-table blocks — this is
// where the shared global address space pays off in the macro benchmarks.
func (c *CPU) switchCost(next *Thread) sim.Time {
	p := c.m.P
	d := p.CtxSwitchRegs + p.CtxSwitchPollution
	c.Acct.Add(stats.BlockSched, d)
	if c.lastPT != nil && next.proc.PageTable != c.lastPT {
		c.Acct.Add(stats.BlockPT, p.PageTableSwitch+p.TLBRefill)
		d += p.PageTableSwitch + p.TLBRefill
	}
	// Switching the current process descriptor is "part of block 5"
	// (§2.2), charged whenever the process changes.
	if c.lastProc != nil && c.lastProc != next.proc {
		c.Acct.Add(stats.BlockSched, p.CurrentSwitch)
		d += p.CurrentSwitch
		// Second-order pollution: the incoming process finds its
		// working set evicted and refills it (§2.2). The charge lands
		// on the switch because that is where the paper accounts it.
		if next.proc.WorkingSet > 0 && p.CacheRefillBytesPerNs > 0 {
			refill := sim.Nanos(float64(next.proc.WorkingSet) / p.CacheRefillBytesPerNs)
			c.Acct.Add(stats.BlockSched, refill)
			d += refill
		}
	}
	return d
}

// switchOut removes prev (the current thread) from the CPU and runs the
// next runnable thread, if any. It is called with prev already accounted
// as Blocked/Runnable/Dead.
func (c *CPU) switchOut(prev *Thread) {
	p := c.m.P
	c.Acct.Add(stats.BlockSched, p.SchedPickNext)
	var next *Thread
	if c.runq.Len() > 0 {
		next = c.runq.PopFront()
	} else if c.m.StealOnIdle {
		next = c.steal()
	}
	if next == nil {
		c.cur = nil
		c.idleSince = c.m.Eng.Now() + p.SchedPickNext
		return
	}
	c.reserve(next)
	delay := p.SchedPickNext + c.switchCost(next)
	c.fire(next, delay)
}

// directSwitch hands the CPU from the (already detached) previous thread
// straight to target after delay: the L4 fast path.
func (c *CPU) directSwitch(target *Thread, delay sim.Time) {
	c.reserve(target)
	c.fire(target, delay)
}

// steal pulls one thread from the longest remote run queue (length ≥ 2,
// so stealing does not just bounce a lone thread between CPUs).
func (c *CPU) steal() *Thread {
	var victim *CPU
	best := 1
	for _, o := range c.m.CPUs {
		if o != c && o.runq.Len() > best {
			victim, best = o, o.runq.Len()
		}
	}
	if victim == nil {
		return nil
	}
	t := victim.runq.PopBack()
	// Migration cost: the stolen thread's cache state is cold here.
	c.Acct.Add(stats.BlockSched, c.m.P.CtxSwitchPollution)
	return t
}
