package netpipe

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Variant selects how the user-level driver is isolated from the
// application (the Figure 7 series).
type Variant int

// Isolation variants, in Fig. 7's legend order.
const (
	// Bare runs the driver as a plain library in the application: the
	// baseline everything is compared against (native Infiniband).
	Bare Variant = iota
	// DIPC isolates the driver in a CODOMs domain of the same process,
	// crossed with a dIPC proxy under an asymmetric low policy.
	DIPC
	// DIPCProc isolates the driver in its own dIPC-enabled process.
	DIPCProc
	// Kernel moves the driver behind the syscall boundary (a classic
	// in-kernel driver).
	Kernel
	// Sem isolates the driver in a separate process reached with POSIX
	// semaphores over shared memory.
	Sem
	// Pipe isolates the driver in a separate process reached with
	// pipes (paying descriptor copies the data path does not need).
	Pipe
	NumVariants
)

// String names the variant like the figure's legend.
func (v Variant) String() string {
	switch v {
	case Bare:
		return "Bare (native)"
	case DIPC:
		return "dIPC"
	case DIPCProc:
		return "dIPC +proc"
	case Kernel:
		return "Kernel"
	case Sem:
		return "Semaphore (=CPU)"
	case Pipe:
		return "Pipe (=CPU)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// World is one configured benchmark instance: a machine, a NIC, and a
// driver-invocation path for the chosen variant.
type World struct {
	Variant Variant
	Eng     *sim.Engine
	M       *kernel.Machine
	NIC     *NIC

	app *kernel.Process
	// call performs one isolated driver operation on t.
	call func(t *kernel.Thread)
}

// irqPathCost is the interrupt entry/exit and bottom-half work charged
// per completion when the driver lives in the kernel.
const irqPathCost = 80 * sim.Nanosecond

// reqDescBytes is the size of the request descriptor the pipe variant
// copies through the kernel (the data itself always goes directly
// between the application and the NIC, §7.3: "without additional
// copies").
const reqDescBytes = 64

// Setup builds the world for a variant. A World runs once: RunLatency
// and RunBandwidth close its engine when they return.
func Setup(v Variant, seed uint64) *World {
	eng := sim.NewEngine(seed)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	w := &World{Variant: v, Eng: eng, M: m, NIC: NewNIC(m)}
	switch v {
	case Bare:
		w.app = m.NewProcess("app")
		w.call = func(t *kernel.Thread) {
			t.ExecUser(DriverOpCost)
		}
	case Kernel:
		w.app = m.NewProcess("app")
		w.call = func(t *kernel.Thread) {
			// Submission syscall plus completion syscall; completions
			// additionally arrive through the device interrupt path.
			t.Syscall(func() { t.Exec(DriverOpCost/2, stats.BlockKernel) })
			t.Syscall(func() {
				t.Exec(DriverOpCost/2+irqPathCost, stats.BlockKernel)
			})
		}
	case DIPC, DIPCProc:
		rt := core.NewRuntime(m)
		w.app = rt.NewProcess("app")
		drvProc := w.app
		if v == DIPCProc {
			drvProc = rt.NewProcess("driver")
		}
		// The driver publishes its operation entry point; a management
		// thread of the driver process registers it.
		m.Spawn(drvProc, "driver-init", nil, func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				panic(err)
			}
			var dom core.DomainHandle
			if v == DIPC {
				// Same process, separate domain for the driver.
				dom = rt.DomCreate(t)
			} else {
				dom = rt.DomDefault(t)
			}
			eh, err := rt.EntryRegister(t, dom, []core.EntryDesc{{
				Name: "ib_op",
				Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
					t.ExecUser(DriverOpCost)
					return &core.Args{}
				},
				Sig: core.Signature{InRegs: 2, OutRegs: 1},
				// Asymmetric policy (§7.3): the driver does not demand
				// isolation from its application.
				Policy: core.PolicyLow,
			}})
			if err != nil {
				panic(err)
			}
			if err := rt.Publish(t, "/run/ib-driver.sock", eh); err != nil {
				panic(err)
			}
		})
		eng.Run()
		// Importing threads resolve the entry lazily on first call.
		var ent *core.ImportedEntry
		w.call = func(t *kernel.Thread) {
			if ent == nil {
				if _, err := rt.EnterProcessCode(t); err != nil {
					panic(err)
				}
				ents, err := rt.MustImport(t, "/run/ib-driver.sock", []core.EntryDesc{{
					Name: "ib_op", Sig: core.Signature{InRegs: 2, OutRegs: 1},
					Policy: core.PolicyLow,
				}})
				if err != nil {
					panic(err)
				}
				ent = ents[0]
			}
			if _, err := ent.Call(t, &core.Args{Regs: []uint64{0, 0}}); err != nil {
				panic(err)
			}
		}
	case Sem, Pipe:
		w.app = m.NewProcess("app")
		drv := m.NewProcess("driver")
		cpu := m.CPUs[0] // =CPU configuration
		switch v {
		case Sem:
			req, rsp := ipc.NewSemaphore(0), ipc.NewSemaphore(0)
			m.Spawn(drv, "driver-svc", cpu, func(t *kernel.Thread) {
				for {
					req.Wait(t)
					t.ExecUser(DriverOpCost)
					rsp.Post(t)
				}
			})
			w.call = func(t *kernel.Thread) {
				req.Post(t)
				rsp.Wait(t)
			}
		case Pipe:
			reqPipe, rspPipe := ipc.NewPipe(0), ipc.NewPipe(0)
			m.Spawn(drv, "driver-svc", cpu, func(t *kernel.Thread) {
				for {
					reqPipe.ReadFull(t, reqDescBytes)
					t.ExecUser(DriverOpCost)
					rspPipe.Write(t, reqDescBytes)
				}
			})
			w.call = func(t *kernel.Thread) {
				reqPipe.Write(t, reqDescBytes)
				rspPipe.ReadFull(t, reqDescBytes)
			}
		}
	}
	return w
}

// RunLatency returns the mean ping-pong round-trip time for size-byte
// messages: one send-side driver op, the NIC round trip, and one
// completion-side driver op per round.
func (w *World) RunLatency(size, rounds int) sim.Time {
	defer w.Eng.Close()
	var total sim.Time
	w.M.Spawn(w.app, "nptcp-lat", w.M.CPUs[0], func(t *kernel.Thread) {
		for i := 0; i < 4; i++ { // warmup (resolution, cold caches)
			w.call(t)
		}
		start := w.Eng.Now()
		for i := 0; i < rounds; i++ {
			w.call(t) // post send
			w.NIC.PingPong(t, size)
			w.call(t) // reap completion
		}
		total = w.Eng.Now() - start
	})
	w.Eng.Run()
	return total / sim.Time(rounds)
}

// RunBandwidth returns the achieved streaming bandwidth in bytes/ns for
// back-to-back size-byte messages. Each message costs four isolated
// driver operations (post + completion on the send and receive sides,
// which share the machine in the =CPU configurations) while the wire
// drains concurrently.
func (w *World) RunBandwidth(size, messages int) float64 {
	defer w.Eng.Close()
	var elapsed sim.Time
	w.M.Spawn(w.app, "nptcp-bw", w.M.CPUs[0], func(t *kernel.Thread) {
		for i := 0; i < 4; i++ {
			w.call(t)
		}
		start := w.Eng.Now()
		for i := 0; i < messages; i++ {
			w.call(t)
			w.call(t)
			w.NIC.Post(size)
			w.call(t)
			w.call(t)
		}
		w.NIC.Drain(t)
		elapsed = w.Eng.Now() - start
	})
	w.Eng.Run()
	if elapsed <= 0 {
		return 0
	}
	return float64(size*messages) / elapsed.Nanoseconds()
}
