// Timeout splitting: the §5.4 extension. A caller invokes a slow service
// with a deadline; when the deadline passes, dIPC "splits" the thread —
// the caller resumes at the timing-out proxy with an error while the
// callee's half keeps running and is reaped when it returns. The paper
// designed but did not implement this; the reproduction does.
//
//	go run ./examples/timeout
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

// demo runs one patient call (completes) and one impatient call (times
// out and splits the thread), returning the patient call's result and
// the impatient call's error (testable from the smoke test).
func demo(w io.Writer) (patient uint64, timeoutErr error) {
	eng := sim.NewEngine(3)
	defer eng.Close()
	machine := kernel.NewMachine(eng, cost.Default(), 2)
	rt := core.NewRuntime(machine)
	slow := rt.NewProcess("slow-service")
	client := rt.NewProcess("client")

	machine.Spawn(slow, "svc-main", nil, func(t *kernel.Thread) {
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		eh, err := rt.EntryRegister(t, rt.DomDefault(t), []core.EntryDesc{{
			Name: "lookup",
			Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
				// Simulate a stalled backend: 5 ms of I/O wait.
				t.SleepFor(sim.Millis(5))
				return &core.Args{Regs: []uint64{99}}
			},
			Sig: core.Signature{InRegs: 1, OutRegs: 1},
			// Time-outs require split stacks (§5.4).
			Policy: core.StackConfIntegrity,
		}})
		if err != nil {
			panic(err)
		}
		if err := rt.Publish(t, "/run/slow.sock", eh); err != nil {
			panic(err)
		}
	})

	machine.Spawn(client, "client-main", nil, func(t *kernel.Thread) {
		t.SleepFor(10 * sim.Microsecond)
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		ents, err := rt.MustImport(t, "/run/slow.sock", []core.EntryDesc{{
			Name: "lookup", Sig: core.Signature{InRegs: 1, OutRegs: 1},
			Policy: core.StackConfIntegrity,
		}})
		if err != nil {
			panic(err)
		}

		// Patient call: completes.
		start := eng.Now()
		out, err := ents[0].CallWithTimeout(t, &core.Args{Regs: []uint64{1}}, sim.Millis(50))
		patient = out.Regs[0]
		fmt.Fprintf(w, "50ms deadline: result=%v err=%v after %v\n", out.Regs[0], err, eng.Now()-start)

		// Impatient call: the thread splits and the caller resumes.
		start = eng.Now()
		_, timeoutErr = ents[0].CallWithTimeout(t, &core.Args{Regs: []uint64{2}}, sim.Millis(1))
		fmt.Fprintf(w, "1ms deadline:  err=%v after %v\n", timeoutErr, eng.Now()-start)
		fmt.Fprintf(w, "caller is alive in %q; the split-off callee half finishes on its own\n",
			t.Process().Name)
	})
	eng.Run()
	fmt.Fprintf(w, "all threads drained at %v\n", eng.Now())
	return patient, timeoutErr
}
