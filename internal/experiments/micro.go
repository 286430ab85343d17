// Package experiments wires every table and figure of the paper's
// evaluation into a runnable harness: the micro-benchmarks of §2.2/§7.2
// (Figs. 2, 5, 6), the architecture comparison (Table 1), the driver
// isolation study (Fig. 7, §7.3), the OLTP macro-benchmark (Figs. 1 and
// 8, §7.4) and the §7.5 sensitivity analysis. Each experiment returns a
// structured result, which its scenario converts into the series that
// cmd/dipcbench prints and the golden files pin.
package experiments

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Measurement is one measured primitive: the mean synchronous round-trip
// time and the per-CPU time breakdown of the measurement window, scaled
// per round (the format of Fig. 2's stacked bars).
type Measurement struct {
	Label  string
	Mean   sim.Time
	PerCPU []stats.Breakdown
}

// microHarness runs op() `rounds` times (after warmup) on a caller
// thread and returns the measurement.
type microHarness struct {
	eng    *sim.Engine
	m      *kernel.Machine
	caller *kernel.Process
	pin    *kernel.CPU
	setup  func(t *kernel.Thread) // optional, runs once on the caller
	op     func(t *kernel.Thread) // one synchronous round trip
}

const (
	microWarmup = 16
	microRounds = 256
)

func (h *microHarness) run(label string) Measurement {
	defer h.eng.Close()
	var mean sim.Time
	var per []stats.Breakdown
	h.m.Spawn(h.caller, "caller", h.pin, func(t *kernel.Thread) {
		if h.setup != nil {
			h.setup(t)
		}
		for i := 0; i < microWarmup; i++ {
			h.op(t)
		}
		base := h.m.CPUSnapshots()
		start := h.eng.Now()
		for i := 0; i < microRounds; i++ {
			h.op(t)
		}
		mean = (h.eng.Now() - start) / microRounds
		endSnaps := h.m.CPUSnapshots()
		for i := range endSnaps {
			per = append(per, endSnaps[i].Sub(base[i]).Scale(microRounds))
		}
	})
	h.eng.Run()
	return Measurement{Label: label, Mean: mean, PerCPU: per}
}

// newMachine builds a fresh 2-CPU machine for a micro-benchmark.
func newMachine(seed uint64) (*sim.Engine, *kernel.Machine) {
	eng := sim.NewEngine(seed)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	return eng, m
}

// MeasureFunc measures a plain function call.
func MeasureFunc() Measurement {
	eng, m := newMachine(1)
	p := m.NewProcess("app")
	h := &microHarness{eng: eng, m: m, caller: p, pin: m.CPUs[0],
		op: func(t *kernel.Thread) { t.ExecUser(m.P.FuncCall) }}
	return h.run("Function call")
}

// MeasureSyscall measures an empty system call.
func MeasureSyscall() Measurement {
	eng, m := newMachine(1)
	p := m.NewProcess("app")
	h := &microHarness{eng: eng, m: m, caller: p, pin: m.CPUs[0],
		op: func(t *kernel.Thread) { t.Syscall(nil) }}
	return h.run("Syscall")
}

// MeasureSem measures the POSIX-semaphore ping-pong with an argument of
// the given size through a pre-shared buffer.
func MeasureSem(sameCPU bool, size int) Measurement {
	eng, m := newMachine(2)
	caller := m.NewProcess("caller")
	callee := m.NewProcess("callee")
	req, rsp := ipc.NewSemaphore(0), ipc.NewSemaphore(0)
	buf := ipc.NewSharedBuffer(1 << 21)
	calleeCPU := m.CPUs[0]
	if !sameCPU {
		calleeCPU = m.CPUs[1]
	}
	m.Spawn(callee, "callee", calleeCPU, func(t *kernel.Thread) {
		for {
			req.Wait(t)
			buf.Read(t)
			rsp.Post(t)
		}
	})
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		op: func(t *kernel.Thread) {
			buf.Write(t, size)
			req.Post(t)
			rsp.Wait(t)
		}}
	label := "Sem. (=CPU)"
	if !sameCPU {
		label = "Sem. (!=CPU)"
	}
	return h.run(label)
}

// MeasurePipe measures a synchronous call over a pipe pair.
func MeasurePipe(sameCPU bool, size int) Measurement {
	eng, m := newMachine(3)
	caller := m.NewProcess("caller")
	callee := m.NewProcess("callee")
	reqPipe, rspPipe := ipc.NewPipe(1<<20), ipc.NewPipe(1<<20)
	calleeCPU := m.CPUs[0]
	if !sameCPU {
		calleeCPU = m.CPUs[1]
	}
	m.Spawn(callee, "callee", calleeCPU, func(t *kernel.Thread) {
		for {
			reqPipe.ReadFull(t, size)
			rspPipe.Write(t, 8)
		}
	})
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		op: func(t *kernel.Thread) {
			reqPipe.Write(t, size)
			rspPipe.ReadFull(t, 8)
		}}
	label := "Pipe (=CPU)"
	if !sameCPU {
		label = "Pipe (!=CPU)"
	}
	return h.run(label)
}

// MeasureL4 measures L4-style synchronous IPC with register payload.
func MeasureL4(sameCPU bool) Measurement {
	eng, m := newMachine(4)
	caller := m.NewProcess("client")
	callee := m.NewProcess("server")
	ep := &ipc.L4Endpoint{}
	serverCPU := m.CPUs[0]
	if !sameCPU {
		serverCPU = m.CPUs[1]
	}
	m.Spawn(callee, "server", serverCPU, func(t *kernel.Thread) {
		msg := ep.Wait(t)
		for {
			msg = ep.ReplyWait(t, msg)
		}
	})
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		setup: func(t *kernel.Thread) { t.ExecUser(sim.Microsecond) }, // let the server park
		op:    func(t *kernel.Thread) { ep.Call(t, 1) }}
	label := "L4 (=CPU)"
	if !sameCPU {
		label = "L4 (!=CPU)"
	}
	return h.run(label)
}

// MeasureRPC measures a glibc-rpcgen-style local RPC round trip over a
// UNIX socket. Each side marshals what it sends and unmarshals what it
// receives (RPCMarshal plus a copy of the message), and the server also
// dispatches the call to its procedure (RPCDispatch), which returns an
// empty result. Only message sizes reach the model, so nothing is
// encoded: the sizes are those of the ONC RPC messages in XDR
// (RFC 4506), whose fields are 4-byte words (rpcCallBytes,
// rpcReplyBytes).
func MeasureRPC(sameCPU bool, size int) Measurement {
	eng, m := newMachine(5)
	caller := m.NewProcess("client")
	callee := m.NewProcess("server")
	conn := ipc.NewConn(0)
	p := m.P
	serverCPU := m.CPUs[0]
	if !sameCPU {
		serverCPU = m.CPUs[1]
	}
	m.Spawn(callee, "server", serverCPU, func(t *kernel.Thread) {
		for {
			call := conn.AtoB.Recv(t)
			t.Exec(p.RPCMarshal+p.Copy(call.Size), stats.BlockUser) // unmarshal
			t.Exec(p.RPCDispatch, stats.BlockUser)
			t.Exec(p.RPCMarshal+p.Copy(rpcReplyBytes), stats.BlockUser) // marshal
			conn.BtoA.Send(t, ipc.Message{Size: rpcReplyBytes})
		}
	})
	req := rpcCallBytes(size)
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		op: func(t *kernel.Thread) {
			t.Exec(p.RPCMarshal+p.Copy(req), stats.BlockUser) // marshal
			conn.AtoB.Send(t, ipc.Message{Size: req})
			reply := conn.BtoA.Recv(t)
			t.Exec(p.RPCMarshal+p.Copy(reply.Size), stats.BlockUser) // unmarshal
		}}
	label := "Local RPC (=CPU)"
	if !sameCPU {
		label = "Local RPC (!=CPU)"
	}
	return h.run(label)
}

// rpcReplyBytes is the XDR size of a reply with an empty result: xid,
// message kind, found flag and the result's length word.
const rpcReplyBytes = 16

// rpcCallBytes is the XDR size of a call with a size-byte argument:
// xid, message kind, procedure number and the argument's length word,
// then the argument padded to a whole word.
func rpcCallBytes(size int) int { return 16 + (size+3)&^3 }

// dipcPolicy maps the figure's Low/High labels onto isolation policies.
func dipcPolicy(high bool) core.IsoProps {
	if high {
		return core.PolicyHigh
	}
	return core.PolicyLow
}

// MeasureDIPC measures a dIPC call. cross selects intra-process domain
// isolation (false) or a full cross-process call (true); high selects
// the High (mutual-isolation) policy vs the minimal Low policy.
func MeasureDIPC(cross, high bool, size int) Measurement {
	return MeasureDIPCParams(cost.Default(), cross, high, size)
}

// MeasureDIPCParams is MeasureDIPC under a custom cost model, used by
// the ablation experiments (e.g. zeroing the TLS switch, §7.2).
func MeasureDIPCParams(params *cost.Params, cross, high bool, size int) Measurement {
	eng := sim.NewEngine(6)
	m := kernel.NewMachine(eng, params, 2)
	rt := core.NewRuntime(m)
	caller := rt.NewProcess("web")
	calleeProc := caller
	if cross {
		calleeProc = rt.NewProcess("db")
	}
	pol := dipcPolicy(high)
	// Register the entry: in a fresh domain of the callee process.
	m.Spawn(calleeProc, "init", nil, func(t *kernel.Thread) {
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		dom := rt.DomDefault(t)
		if !cross {
			dom = rt.DomCreate(t) // separate domain, same process
		}
		eh, err := rt.EntryRegister(t, dom, []core.EntryDesc{{
			Name:   "f",
			Fn:     func(t *kernel.Thread, in *core.Args) *core.Args { return in },
			Sig:    core.Signature{InRegs: 2, OutRegs: 1, StackBytes: 64},
			Policy: pol,
		}})
		if err != nil {
			panic(err)
		}
		if err := rt.Publish(t, "/f", eh); err != nil {
			panic(err)
		}
	})
	eng.Run()
	var ent *core.ImportedEntry
	args := &core.Args{Regs: []uint64{1, 2}, StackBytes: 64, Data: size}
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		setup: func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				panic(err)
			}
			ents, err := rt.MustImport(t, "/f", []core.EntryDesc{{
				Name: "f", Sig: core.Signature{InRegs: 2, OutRegs: 1, StackBytes: 64},
				Policy: pol,
			}})
			if err != nil {
				panic(err)
			}
			ent = ents[0]
		},
		op: func(t *kernel.Thread) {
			if _, err := ent.Call(t, args); err != nil {
				panic(err)
			}
		}}
	label := "dIPC - "
	if high {
		label += "High"
	} else {
		label += "Low"
	}
	if cross {
		label += " (=CPU;+proc)"
	} else {
		label += " (=CPU)"
	}
	return h.run(label)
}

// MeasureUserRPC measures the "dIPC - User RPC (!=CPU)" configuration of
// §7.2: the caller enters the server process through a dIPC proxy; the
// server-side stub copies the arguments at user level and hands them to
// a worker thread on another CPU, synchronizing with same-process
// futexes only.
func MeasureUserRPC(size int) Measurement {
	eng, m := newMachine(7)
	rt := core.NewRuntime(m)
	caller := rt.NewProcess("client")
	server := rt.NewProcess("server")
	req, rsp := ipc.NewSemaphore(0), ipc.NewSemaphore(0)
	// Worker thread of the server process on the other CPU.
	m.Spawn(server, "worker", m.CPUs[1], func(t *kernel.Thread) {
		for {
			req.Wait(t)
			t.ExecUser(m.P.Copy(size)) // worker reads the request copy
			rsp.Post(t)
		}
	})
	m.Spawn(server, "init", nil, func(t *kernel.Thread) {
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		eh, err := rt.EntryRegister(t, rt.DomDefault(t), []core.EntryDesc{{
			Name: "submit",
			Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
				// User-level copy of the arguments, then hand off.
				t.ExecUser(m.P.Copy(in.Data.(int)))
				req.Post(t)
				rsp.Wait(t)
				return &core.Args{}
			},
			Sig:    core.Signature{InRegs: 2, OutRegs: 1},
			Policy: core.PolicyLow,
		}})
		if err != nil {
			panic(err)
		}
		if err := rt.Publish(t, "/urpc", eh); err != nil {
			panic(err)
		}
	})
	eng.Run()
	var ent *core.ImportedEntry
	args := &core.Args{Regs: []uint64{1, 2}, Data: size}
	h := &microHarness{eng: eng, m: m, caller: caller, pin: m.CPUs[0],
		setup: func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				panic(err)
			}
			ents, err := rt.MustImport(t, "/urpc", []core.EntryDesc{{
				Name: "submit", Sig: core.Signature{InRegs: 2, OutRegs: 1},
				Policy: core.PolicyLow,
			}})
			if err != nil {
				panic(err)
			}
			ent = ents[0]
		},
		op: func(t *kernel.Thread) {
			if _, err := ent.Call(t, args); err != nil {
				panic(err)
			}
		}}
	return h.run("dIPC - User RPC (!=CPU)")
}
