package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// CrossCallResult is one measured proxy call-path configuration: a
// chain of `Depth` processes bridged by dIPC proxies, driven for
// `Calls` synchronous round trips from a caller thread.
type CrossCallResult struct {
	Depth      int
	High       bool
	Calls      int
	MeanPerOp  sim.Time // simulated time per top-level call (all hops)
	APLHitRate float64  // caller thread's APL-cache hit rate over the run
}

// MeasureCrossCallChain drives the proxy call path itself — the code
// this repo's perf work targets — with no device, scheduler or workload
// noise around it: depth processes chained behind published entries,
// one caller thread, warmup plus calls round trips. It is the library
// twin of internal/core's BenchmarkCrossCall, exposed as a scenario so
// the wall-clock perf harness (dipcbench bench / CI perf-smoke) tracks
// the call path directly rather than only through whole figures.
func MeasureCrossCallChain(depth, calls int, high bool) *CrossCallResult {
	eng := sim.NewEngine(11)
	defer eng.Close()
	m := kernel.NewMachine(eng, cost.Default(), 2)
	rt := core.NewRuntime(m)
	caller := rt.NewProcess("caller")

	pol := core.PolicyLow
	if high {
		pol = core.PolicyHigh
	}
	sig := core.Signature{InRegs: 2, OutRegs: 1, StackBytes: 64}

	procs := make([]*kernel.Process, depth)
	for i := range procs {
		procs[i] = rt.NewProcess("svc" + strconv.Itoa(i))
	}
	for i := depth - 1; i >= 0; i-- {
		i := i
		m.Spawn(procs[i], "init", nil, func(t *kernel.Thread) {
			if _, err := rt.EnterProcessCode(t); err != nil {
				panic(err)
			}
			var next *core.ImportedEntry
			if i+1 < depth {
				ents, err := rt.MustImport(t, "/hop"+strconv.Itoa(i+1), []core.EntryDesc{{
					Name: "f", Sig: sig, Policy: pol,
				}})
				if err != nil {
					panic(err)
				}
				next = ents[0]
			}
			eh, err := rt.EntryRegister(t, rt.DomDefault(t), []core.EntryDesc{{
				Name: "f",
				Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
					if next != nil {
						out, err := next.Call(t, in)
						if err != nil {
							panic(err)
						}
						return out
					}
					return in
				},
				Sig:    sig,
				Policy: pol,
			}})
			if err != nil {
				panic(err)
			}
			if err := rt.Publish(t, "/hop"+strconv.Itoa(i), eh); err != nil {
				panic(err)
			}
		})
		eng.Run()
	}

	res := &CrossCallResult{Depth: depth, High: high, Calls: calls}
	m.Spawn(caller, "caller", m.CPUs[0], func(t *kernel.Thread) {
		if _, err := rt.EnterProcessCode(t); err != nil {
			panic(err)
		}
		ents, err := rt.MustImport(t, "/hop0", []core.EntryDesc{{
			Name: "f", Sig: sig, Policy: pol,
		}})
		if err != nil {
			panic(err)
		}
		ent := ents[0]
		args := &core.Args{Regs: []uint64{1, 2}, StackBytes: 64}
		for i := 0; i < 16; i++ { // warm the track / verdict / cap caches
			if _, err := ent.Call(t, args); err != nil {
				panic(err)
			}
		}
		start := eng.Now()
		for i := 0; i < calls; i++ {
			if _, err := ent.Call(t, args); err != nil {
				panic(err)
			}
		}
		res.MeanPerOp = (eng.Now() - start) / sim.Time(calls)
		res.APLHitRate = t.HW.Cache.HitRate()
	})
	eng.Run()
	return res
}

// Label names the configuration the way Fig. 5 does.
func (r *CrossCallResult) Label() string {
	pol := "Low"
	if r.High {
		pol = "High"
	}
	if r.Depth == 1 {
		return "dIPC - " + pol + " (=CPU;+proc)"
	}
	return fmt.Sprintf("dIPC - %s (chain x%d)", pol, r.Depth)
}
