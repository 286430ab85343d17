package loader

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

func setup() (*sim.Engine, *kernel.Machine, *core.Runtime) {
	eng := sim.NewEngine(5)
	m := kernel.NewMachine(eng, cost.Default(), 2)
	return eng, m, core.NewRuntime(m)
}

func TestLoadTwoProgramsAndCall(t *testing.T) {
	eng, m, rt := setup()
	dbProc := rt.NewProcess("db")
	webProc := rt.NewProcess("web")

	dbManifest := &Manifest{
		Name:    "db",
		Publish: "/run/db.sock",
		Entries: []EntrySpec{{
			Name: "query",
			Fn: func(th *kernel.Thread, in *core.Args) *core.Args {
				return &core.Args{Regs: []uint64{in.Regs[0] * 10}}
			},
			Sig:    core.Signature{InRegs: 1, OutRegs: 1},
			Policy: core.PolicyHigh,
		}},
	}
	webManifest := &Manifest{
		Name: "web",
		Imports: []ImportSpec{{
			Path: "/run/db.sock", Name: "query",
			Sig: core.Signature{InRegs: 1, OutRegs: 1}, Policy: core.PolicyLow,
		}},
	}

	var out *core.Args
	var err error
	m.Spawn(dbProc, "db-main", nil, func(th *kernel.Thread) {
		if _, lerr := Load(th, rt, dbManifest); lerr != nil {
			t.Errorf("load db: %v", lerr)
		}
	})
	m.Spawn(webProc, "web-main", nil, func(th *kernel.Thread) {
		th.SleepFor(10 * sim.Microsecond) // after db publishes
		im, lerr := Load(th, rt, webManifest)
		if lerr != nil {
			t.Errorf("load web: %v", lerr)
			return
		}
		q, ok := im.imports["query"]
		if !ok {
			t.Error("query not resolved")
			return
		}
		out, err = q.Call(th, &core.Args{Regs: []uint64{7}})
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Regs[0] != 70 {
		t.Fatalf("out = %+v", out)
	}
}

func TestLoadIntraProcessPerms(t *testing.T) {
	eng, m, rt := setup()
	proc := rt.NewProcess("app")
	mf := &Manifest{
		Name: "app",
		Domains: []DomainSpec{
			{Name: "plugin", DataBytes: 4096},
		},
		Perms: []PermSpec{
			// The app may read the plugin, not vice versa (asymmetric
			// isolation, §2.4).
			{Src: "default", Dst: "plugin", Perm: core.PermRead},
		},
	}
	var im *Image
	var err error
	m.Spawn(proc, "main", nil, func(th *kernel.Thread) {
		im, err = Load(th, rt, mf)
	})
	eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	arch := rt.Arch()
	appTag := im.Domains["default"].Tag()
	plugTag := im.Domains["plugin"].Tag()
	if arch.APLPerm(appTag, plugTag).String() != "read" {
		t.Fatalf("app->plugin = %v", arch.APLPerm(appTag, plugTag))
	}
	if arch.APLPerm(plugTag, appTag).String() != "nil" {
		t.Fatalf("plugin->app = %v, want nil (asymmetric)", arch.APLPerm(plugTag, appTag))
	}
}

func TestLoadErrors(t *testing.T) {
	eng, m, rt := setup()
	cases := []struct {
		name string
		mf   *Manifest
	}{
		{"dup domain", &Manifest{Domains: []DomainSpec{{Name: "x"}, {Name: "x"}}}},
		{"unknown perm src", &Manifest{Perms: []PermSpec{{Src: "nope", Dst: "default", Perm: core.PermRead}}}},
		{"unknown perm dst", &Manifest{Perms: []PermSpec{{Src: "default", Dst: "nope", Perm: core.PermRead}}}},
		{"unknown entry domain", &Manifest{Entries: []EntrySpec{{
			Name: "e", Domain: "nope",
			Fn: func(th *kernel.Thread, in *core.Args) *core.Args { return in },
		}}}},
		{"unresolved import", &Manifest{Imports: []ImportSpec{{Path: "/missing", Name: "x"}}}},
	}
	for _, c := range cases {
		proc := rt.NewProcess("p-" + c.name)
		var err error
		m.Spawn(proc, c.name, nil, func(th *kernel.Thread) {
			_, err = Load(th, rt, c.mf)
		})
		eng.Run()
		if err == nil {
			t.Errorf("%s: expected load failure", c.name)
		}
	}
}

func TestRecoveryStubExperiment(t *testing.T) {
	// §5.3.1: try-style recovery ≈2.5× faster than setjmp-style.
	p := cost.Default()
	speedup := RecoverySpeedup(p)
	if speedup < 2.0 || speedup > 3.3 {
		t.Fatalf("try vs setjmp speedup = %.2f, want ~2.5 (paper §5.3.1)", speedup)
	}
	if RecoveryCallCost(p, RecoverySetjmp) <= RecoveryCallCost(p, RecoveryTry) {
		t.Fatal("setjmp must cost more than try")
	}
}
