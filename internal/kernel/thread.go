package kernel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// ThreadState is a thread's scheduling state.
type ThreadState int

// Thread states.
const (
	ThreadRunnable ThreadState = iota
	ThreadRunning
	ThreadBlocked
	ThreadDead
)

// Thread is a simulated kernel thread. The paper calls application
// threads that cross processes through dIPC "primary threads"; threads
// that only exist to service IPC requests are the "service threads" dIPC
// eliminates (§2.3).
type Thread struct {
	ID   int
	Name string

	m    *Machine
	proc *Process
	sp   sim.Proc      // the thread's coroutine, started by Spawn
	body func(*Thread) // the code Spawn was given, run once scheduled

	state       ThreadState
	cpu         *CPU // CPU it runs on (or is queued on)
	lastCPU     *CPU
	pinned      *CPU
	quantumLeft sim.Time

	schedWaiter  sim.Waiter
	wakeData     any
	wakeWord     uint64 // WakeU64's word, when wordWake is set
	wordWake     bool   // the accepted wake carries wakeWord, not wakeData
	blockPending bool   // inside Block's arm window
	pendingWake  bool   // a Wake arrived during the arm window
	sleepWake    func() // SleepFor's timer callback, built on first use

	// Ext is a slot for higher layers. The dIPC runtime hangs its
	// per-thread state here: the thread's CODOMs context (APL cache and
	// capability registers), the KCS and the tracking caches. A thread
	// that never makes a dIPC call, as on the Linux and Ideal baselines,
	// carries none of it.
	Ext any
}

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// MigrateTo switches the thread's current process: dIPC proxies perform
// an in-place process switch on cross-process calls so that resource
// accounting follows the thread (§6.1.2, track_process_call). The cost
// is charged by the caller (the proxy).
func (t *Thread) MigrateTo(p *Process) {
	t.proc = p
	if t.cpu != nil && t.cpu.cur == t {
		// The CPU's notion of the current process follows the thread.
		t.cpu.lastProc = p
		t.cpu.lastPT = p.PageTable
	}
}

// State returns the scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// CPU returns the CPU the thread currently occupies (nil if blocked).
func (t *Thread) CPU() *CPU { return t.cpu }

// Pinned returns the CPU the thread is pinned to, or nil.
func (t *Thread) Pinned() *CPU { return t.pinned }

// Spawn creates a thread in process p running fn. If pin is non-nil the
// thread is restricted to that CPU. The thread begins runnable and is
// dispatched by the scheduler like any other. Its sim.Proc lives inside
// the Thread and starts through sim.Start with run as its body, so a
// thread costs the simulator two allocations: the Thread and the
// coroutine body's closure.
func (m *Machine) Spawn(p *Process, name string, pin *CPU, fn func(t *Thread)) *Thread {
	m.nextTID++
	t := &Thread{
		ID:     m.nextTID,
		Name:   name,
		m:      m,
		proc:   p,
		pinned: pin,
		body:   fn,
	}
	sim.Start(m.Eng, &t.sp, name, 0, t, (*Thread).run)
	return t
}

// run is the thread's coroutine body: it queues for a CPU, runs the
// code Spawn was given once scheduled, and exits.
func (t *Thread) run() {
	// First scheduling: claim a CPU or queue for one.
	t.state = ThreadRunnable
	t.schedWaiter = t.sp.PrepareWait()
	t.targetCPU().place(t, nil)
	t.sp.Wait()
	t.body(t)
	t.exit()
}

// targetCPU picks the CPU a runnable thread should go to. Like CFS's
// wake-affine heuristic, a woken thread prefers its previous CPU (warm
// caches) even when that CPU is moderately busy; this is deliberately
// imperfect and transiently imbalances the machine — the effect the
// paper blames for the idle time of synchronous IPC under load (§7.4).
func (t *Thread) targetCPU() *CPU {
	if t.pinned != nil {
		return t.pinned
	}
	if t.lastCPU != nil && t.lastCPU.runq.Len() <= 2 {
		return t.lastCPU
	}
	return t.m.leastLoadedCPU()
}

// mustBeRunning guards APIs that only the current thread may call. It
// is small enough to inline; the message is built in panicNotRunning.
func (t *Thread) mustBeRunning() {
	if t.state != ThreadRunning || t.cpu == nil || t.cpu.cur != t {
		t.panicNotRunning()
	}
}

// panicNotRunning reports a thread used while it does not hold its CPU.
func (t *Thread) panicNotRunning() {
	cur := "<nil>"
	cpu := -1
	if t.cpu != nil {
		cpu = t.cpu.ID
		if t.cpu.cur != nil {
			cur = t.cpu.cur.Name
		}
	}
	panic(fmt.Sprintf("kernel: thread %q used while not running (state=%d cpu=%d cur=%q)",
		t.Name, t.state, cpu, cur))
}

// Exec charges d of computation to block b, advancing simulated time.
// The quantum expires at Exec boundaries: if other threads are queued on
// this CPU the thread round-robins. A slice that nothing precedes — the
// common case — advances the clock without leaving Exec: the guard and
// Proc.Advance inline here (scripts/inline.sh checks that they do), and
// only a slice that something precedes goes to Proc.Sleep.
func (t *Thread) Exec(d sim.Time, b stats.Block) {
	if d <= 0 {
		return
	}
	t.mustBeRunning()
	for d > 0 {
		slice := d
		if slice > t.quantumLeft {
			slice = t.quantumLeft
		}
		if !t.sp.Advance(slice) {
			t.sp.Sleep(slice)
		}
		t.cpu.Acct.Add(b, slice)
		d -= slice
		t.quantumLeft -= slice
		if t.quantumLeft <= 0 {
			if t.cpu.runq.Len() > 0 {
				t.Yield()
			} else {
				t.quantumLeft = t.m.P.QuantumDefault
			}
		}
	}
}

// ExecUser charges user-mode computation.
func (t *Thread) ExecUser(d sim.Time) { t.Exec(d, stats.BlockUser) }

// Yield gives up the CPU, requeueing the thread at the tail.
func (t *Thread) Yield() {
	t.mustBeRunning()
	cpu := t.cpu
	t.state = ThreadRunnable
	t.schedWaiter = t.sp.PrepareWait()
	cpu.runq.PushBack(t)
	cpu.switchOut(t)
	t.sp.Wait()
}

// Block parks the thread after running arm, which must arrange for a
// future t.Wake (enqueue on a wait queue, start a device operation,
// arm a timer...). It returns the value passed to Wake (a WakeU64 word
// comes back boxed; BlockU64 keeps it unboxed).
func (t *Thread) Block(arm func()) any {
	if t.park(arm) {
		data := t.wakeData
		t.wakeData = nil
		if t.wordWake {
			t.wordWake = false
			return t.wakeWord
		}
		return data
	}
	return t.sp.Wait()
}

// BlockU64 is Block for wakers on the word lane (WakeU64,
// TQueue.WakeOneU64): the word travels the engine's unboxed payload
// lane to the thread with no interface boxing. ok reports whether the
// wake carried a word.
//
//dipcvet:noalloc
func (t *Thread) BlockU64(arm func()) (v uint64, ok bool) {
	if t.park(arm) {
		t.wakeData = nil
		ok, t.wordWake = t.wordWake, false
		return t.wakeWord, ok
	}
	return t.sp.WaitU64()
}

// park runs arm and gives up the CPU, leaving t to wait for its wake.
// It reports true instead when a wake arrived while arm was running —
// the standard "wake beats sleep" rule — whose value is then in
// wakeData or wakeWord and the thread keeps its CPU.
//
//dipcvet:noalloc
func (t *Thread) park(arm func()) (woken bool) {
	t.mustBeRunning()
	cpu := t.cpu
	// arm runs while t still owns the CPU so that wakeups it issues
	// (e.g. waking a server before sleeping for its reply) attribute
	// IPI time to this thread. A Wake aimed at t while arm is running
	// is recorded and consumed by the caller instead of being lost.
	t.blockPending = true
	if arm != nil {
		arm()
	}
	t.blockPending = false
	if t.pendingWake {
		t.pendingWake = false
		return true
	}
	t.schedWaiter = t.sp.PrepareWait()
	t.state = ThreadBlocked
	t.cpu = nil
	cpu.switchOut(t)
	return false
}

// Wake makes a blocked thread runnable, delivering data as the return
// value of its Block. waker attributes IPI costs (nil for devices).
// Waking a non-blocked thread is ignored (like a spurious futex wake).
func (t *Thread) Wake(data any, waker *Thread) bool {
	if !t.wakeable() {
		return false
	}
	t.wakeData, t.wordWake = data, false
	t.resume(waker)
	return true
}

// WakeU64 is Wake with an unboxed word, delivered by BlockU64.
//
//dipcvet:noalloc
func (t *Thread) WakeU64(v uint64, waker *Thread) bool {
	if !t.wakeable() {
		return false
	}
	t.wakeWord, t.wordWake = v, true
	t.resume(waker)
	return true
}

// wakeable reports whether a wake aimed at t now takes effect: t is
// blocked, or inside Block's arm window with no wake recorded yet. A
// rejected wake must leave the pending one's value alone, so callers
// store their value only after this test.
func (t *Thread) wakeable() bool {
	return t.state == ThreadBlocked || (t.blockPending && !t.pendingWake)
}

// resume completes an accepted wake whose value is already stored:
// inside the arm window it is recorded for park to consume, otherwise
// the thread is made runnable.
func (t *Thread) resume(waker *Thread) {
	if t.state != ThreadBlocked {
		t.pendingWake = true
		return
	}
	t.state = ThreadRunnable
	t.targetCPU().place(t, waker)
}

// SleepFor blocks the thread for d without occupying a CPU (client think
// time, device waits). The timer is armed before the thread parks —
// the same event slot Block's arm would give it — and fires the
// thread's one reusable wake callback, so a sleep allocates nothing.
//
//dipcvet:noalloc
func (t *Thread) SleepFor(d sim.Time) {
	t.m.Eng.At(d, t.sleepWaker())
	t.Block(nil)
}

// sleepWaker returns the callback that ends a SleepFor, building it on
// the thread's first sleep.
func (t *Thread) sleepWaker() func() {
	if t.sleepWake == nil {
		t.sleepWake = func() { t.Wake(nil, nil) }
	}
	return t.sleepWake
}

// Syscall models a system call executing fn in kernel mode: trap,
// dispatch trampoline, the body, and the return path. The body charges
// its own kernel time (Fig. 2 block 4).
func (t *Thread) Syscall(fn func()) {
	p := t.m.P
	t.Exec(p.SyscallTrap, stats.BlockSyscall)
	t.Exec(p.SyscallDispatch, stats.BlockDispatch)
	if fn != nil {
		fn()
	}
	t.Exec(p.SyscallRet, stats.BlockSyscall)
}

// exit terminates the thread, releasing its CPU.
func (t *Thread) exit() {
	t.mustBeRunning()
	cpu := t.cpu
	t.state = ThreadDead
	t.cpu = nil
	cpu.switchOut(t)
}
