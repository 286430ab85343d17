// Plugin isolation: asymmetric policies inside one process (§2.4).
//
// An application loads an untrusted plugin into a separate CODOMs domain
// of its own process using the loader's compiler-annotation manifest.
// The isolation is asymmetric: the application can read the plugin's
// memory directly (no IPC, no proxies), but the plugin cannot touch the
// application — and when the plugin crashes, the fault unwinds to the
// application as an error instead of killing it.
//
//	go run ./examples/plugin
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/codoms"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/loader"
	"repro/internal/mem"
	"repro/internal/sim"
)

func main() {
	demo(os.Stdout)
}

// demo loads the plugin, exercises the normal and crashing calls and the
// asymmetric direct read, and returns the plugin-call count, the error
// recovered from the crash and the direct-read check result (testable
// from the smoke test).
func demo(w io.Writer) (calls int, crashErr, readErr error) {
	eng := sim.NewEngine(7)
	defer eng.Close()
	machine := kernel.NewMachine(eng, cost.Default(), 1)
	rt := core.NewRuntime(machine)
	app := rt.NewProcess("app")

	manifest := &loader.Manifest{
		Name: "app-with-plugin",
		Domains: []loader.DomainSpec{
			{Name: "plugin", DataBytes: 64 << 10},
		},
		Perms: []loader.PermSpec{
			// dipc_perm: the app may read the plugin's pool directly;
			// nothing grants the plugin access back.
			{Src: "default", Dst: "plugin", Perm: core.PermRead},
		},
	}

	machine.Spawn(app, "main", nil, func(t *kernel.Thread) {
		im, err := loader.Load(t, rt, manifest)
		if err != nil {
			panic(err)
		}
		arch := rt.Arch()
		appTag := im.Domains["default"].Tag()
		plugTag := im.Domains["plugin"].Tag()
		fmt.Fprintf(w, "app->plugin APL: %v; plugin->app APL: %v (asymmetric)\n",
			arch.APLPerm(appTag, plugTag), arch.APLPerm(plugTag, appTag))

		// Export a plugin entry point in the plugin domain and import
		// it from the app side of the same process.
		eh, err := rt.EntryRegister(t, im.Domains["plugin"], []core.EntryDesc{{
			Name: "render",
			Fn: func(t *kernel.Thread, in *core.Args) *core.Args {
				calls++
				t.ExecUser(50 * sim.Nanosecond)
				if in.Regs[0] == 13 { // unlucky input: the plugin crashes
					core.Fault(t, errors.New("plugin dereferenced a bad pointer"))
				}
				return &core.Args{Regs: []uint64{in.Regs[0] * 2}}
			},
			Sig: core.Signature{InRegs: 1, OutRegs: 1},
		}})
		if err != nil {
			panic(err)
		}
		domP, ents, err := rt.EntryRequest(t, eh, []core.EntryDesc{{
			Name: "render", Sig: core.Signature{InRegs: 1, OutRegs: 1},
			// The app protects its registers and stack from the plugin.
			Policy: core.RegIntegrity | core.StackConfIntegrity,
		}})
		if err != nil {
			panic(err)
		}
		if err := rt.GrantCreate(t, im.Domains["default"], domP); err != nil {
			panic(err)
		}

		// Normal call.
		out, err := ents[0].Call(t, &core.Args{Regs: []uint64{21}})
		fmt.Fprintf(w, "render(21) = %d, err=%v\n", out.Regs[0], err)

		// Crashing call: the fault unwinds through the proxy and comes
		// back as an error — exception semantics, not a dead process.
		_, crashErr = ents[0].Call(t, &core.Args{Regs: []uint64{13}})
		fmt.Fprintf(w, "render(13) -> recovered error: %v\n", crashErr)
		fmt.Fprintf(w, "app survived; KCS depth=%d, still in %q\n",
			core.KCSDepth(t), t.Process().Name)

		// Direct (proxy-free) read of the plugin's pool, allowed by the
		// asymmetric grant; and the reverse check fails.
		plugData, err := rt.DomMmap(t, im.Domains["plugin"], mem.PageSize, mem.FlagWrite)
		if err != nil {
			panic(err)
		}
		readErr = arch.Check(t.HW, rt.PT, plugData, 8, codoms.AccessRead)
		fmt.Fprintf(w, "app reads plugin pool directly: err=%v\n", readErr)
	})
	eng.Run()
	fmt.Fprintf(w, "done: %d plugin calls\n", calls)
	return calls, crashErr, readErr
}
