// Quickstart: the smallest complete dIPC program.
//
// Two processes — a client and a calculator service — run inside one
// dIPC global virtual address space. The service registers an "add"
// entry point; the client resolves it through the named-socket registry,
// gets a run-time-generated proxy, and calls it like a plain function.
// The call crosses process boundaries in place: no service thread, no
// kernel on the fast path.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func main() {
	demo(os.Stdout)
}

// demo boots the machine, runs the add round trip and returns the
// client's result (testable from quickstart's smoke test).
func demo(w io.Writer) (sum uint64) {
	// Boot a 2-CPU simulated machine and a dIPC runtime on it.
	eng := sim.NewEngine(42)
	defer eng.Close()
	machine := kernel.NewMachine(eng, cost.Default(), 2)
	rt := core.NewRuntime(machine)

	calcProc := rt.NewProcess("calc-service")
	clientProc := rt.NewProcess("client")

	// The service process exports its entry point and publishes the
	// handle under a named-socket path.
	machine.Spawn(calcProc, "calc-main", nil, func(t *kernel.Thread) {
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		dom := rt.DomDefault(t)
		eh, err := rt.EntryRegister(t, dom, []core.EntryDesc{{
			Name: "add",
			Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
				t.ExecUser(10 * sim.Nanosecond) // pretend to work
				return &core.Args{Regs: []uint64{in.Regs[0] + in.Regs[1]}}
			},
			Sig: core.Signature{InRegs: 2, OutRegs: 1},
			// The service asks for register confidentiality: callers
			// never see its temporaries.
			Policy: core.RegConfidentiality,
		}})
		if err != nil {
			panic(err)
		}
		if err := rt.Publish(t, "/run/calc.sock", eh); err != nil {
			panic(err)
		}
		fmt.Fprintln(w, "[calc] published /run/calc.sock")
	})

	// The client imports the entry and calls it.
	machine.Spawn(clientProc, "client-main", nil, func(t *kernel.Thread) {
		t.SleepFor(10 * sim.Microsecond) // wait for the publish
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		ents, err := rt.MustImport(t, "/run/calc.sock", []core.EntryDesc{{
			Name: "add",
			Sig:  core.Signature{InRegs: 2, OutRegs: 1},
			// The client asks for register integrity: a buggy service
			// cannot clobber its live registers.
			Policy: core.RegIntegrity,
		}})
		if err != nil {
			panic(err)
		}
		start := eng.Now()
		out, err := ents[0].Call(t, &core.Args{Regs: []uint64{40, 2}})
		if err != nil {
			panic(err)
		}
		sum = out.Regs[0]
		fmt.Fprintf(w, "[client] add(40, 2) = %d (in %v, crossing two processes)\n",
			out.Regs[0], eng.Now()-start)
		fmt.Fprintf(w, "[client] still running in process %q after the call\n",
			t.Process().Name)
	})

	eng.Run()
	fmt.Fprintf(w, "simulation finished at %v\n", eng.Now())
	return sum
}
