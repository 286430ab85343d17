package core

import (
	"errors"
	"testing"

	"repro/internal/codoms"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

// world is the common two-process fixture: a caller (web) and a callee
// (db) inside one dIPC runtime.
type world struct {
	eng *sim.Engine
	m   *kernel.Machine
	rt  *Runtime
	web *kernel.Process
	db  *kernel.Process

	handoff DomainHandle // handle passed between test processes
}

func newWorld(ncpus int) *world {
	eng := sim.NewEngine(11)
	m := kernel.NewMachine(eng, cost.Default(), ncpus)
	rt := NewRuntime(m)
	return &world{
		eng: eng,
		m:   m,
		rt:  rt,
		web: rt.NewProcess("web"),
		db:  rt.NewProcess("db"),
	}
}

// mapDomain maps size bytes tagged with h's domain out of the calling
// process's share of the global address space, the memory a test mints
// capabilities over. It runs on a simulated thread, so a failure is
// reported with Error, not Fatal.
func (w *world) mapDomain(t *testing.T, th *kernel.Thread, h DomainHandle, size int) mem.Addr {
	t.Helper()
	base, err := th.Process().VA.Alloc(size)
	if err == nil {
		err = w.rt.PT.Map(base, mem.PagesIn(size), 0, h.tag)
	}
	if err != nil {
		t.Error(err)
	}
	return base
}

// kcsDepth returns the thread's cross-domain call depth.
func kcsDepth(th *kernel.Thread) int {
	if ts, ok := th.Ext.(*threadState); ok {
		return len(ts.kcs)
	}
	return 0
}

// run executes fn on a fresh thread of proc and drives the sim to
// completion, re-panicking simulation errors.
func (w *world) run(t *testing.T, proc *kernel.Process, fn func(th *kernel.Thread)) {
	t.Helper()
	w.m.Spawn(proc, "test", nil, func(th *kernel.Thread) {
		if _, err := w.rt.EnterProcessCode(th); err != nil {
			t.Errorf("EnterProcessCode: %v", err)
			return
		}
		fn(th)
	})
	w.eng.Run()
}

// export registers a "query" entry in the db process and publishes it.
func (w *world) export(t *testing.T, policy IsoProps, fn Func) {
	t.Helper()
	w.m.Spawn(w.db, "db-init", nil, func(th *kernel.Thread) {
		if _, err := w.rt.EnterProcessCode(th); err != nil {
			t.Errorf("EnterProcessCode: %v", err)
			return
		}
		dom := w.rt.DomDefault(th)
		eh, err := w.rt.EntryRegister(th, dom, []EntryDesc{{
			Name:   "query",
			Fn:     fn,
			Sig:    Signature{InRegs: 2, OutRegs: 1},
			Policy: policy,
		}})
		if err != nil {
			t.Errorf("EntryRegister: %v", err)
			return
		}
		if err := w.rt.Publish(th, "/run/db.sock", eh); err != nil {
			t.Errorf("Publish: %v", err)
		}
	})
	w.eng.Run()
}

func TestEndToEndCall(t *testing.T) {
	w := newWorld(1)
	var calleeProcDuringCall *kernel.Process
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args {
		calleeProcDuringCall = th.Process()
		return &Args{Regs: []uint64{in.Regs[0] + in.Regs[1]}}
	})
	var out *Args
	var err error
	var after *kernel.Process
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, ierr := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: PolicyLow,
		}})
		if ierr != nil {
			err = ierr
			return
		}
		out, err = ents[0].Call(th, &Args{Regs: []uint64{20, 22}})
		after = th.Process()
	})
	if err != nil {
		t.Fatal(err)
	}
	if out == nil || out.Regs[0] != 42 {
		t.Fatalf("result = %+v", out)
	}
	if calleeProcDuringCall != w.db {
		t.Fatal("callee did not run in the db process (in-place migration missing)")
	}
	if after != w.web {
		t.Fatal("thread did not migrate back to the caller process")
	}
}

func TestCallWithoutGrantFails(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, rerr := w.rt.Resolve(th, "/run/db.sock")
		if rerr != nil {
			t.Error(rerr)
			return
		}
		// EntryRequest but deliberately no GrantCreate: the caller's
		// domain has no call permission to the proxy domain (P2).
		_, ents, rerr := w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if rerr != nil {
			t.Error(rerr)
			return
		}
		_, err = ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
	})
	if err == nil {
		t.Fatal("call without grant must fault")
	}
	var f *codoms.Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected a CODOMs fault, got %v", err)
	}
}

func TestDirectCallBypassingProxyFails(t *testing.T) {
	// P2: the callee's entry can only be reached through the proxy; the
	// caller has no APL permission over the callee's domain itself.
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var direct error
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, _ := w.rt.Resolve(th, "/run/db.sock")
		direct = w.rt.M.Arch.CheckCall(&th.HW, w.rt.PT, eh.entries[0].addr)
	})
	if direct == nil {
		t.Fatal("direct call into the callee's domain must be denied")
	}
}

func TestSignatureMismatchRejected(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, _ := w.rt.Resolve(th, "/run/db.sock")
		_, _, err = w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 3, OutRegs: 1}, // wrong
		}})
	})
	if err == nil {
		t.Fatal("P4: signature mismatch must be rejected")
	}
}

func TestFaultUnwindsToCaller(t *testing.T) {
	// A callee that clobbers the return capability faults on its way
	// back into proxy_ret; the proxy unwinds its frame and the fault
	// reaches the caller with the caller's state restored (P3).
	w := newWorld(1)
	w.export(t, PolicyHigh, func(th *kernel.Thread, in *Args) *Args {
		th.HW.CapRegs[retCapReg] = codoms.Capability{}
		return &Args{}
	})
	var err error
	var depthAfter int
	var procAfter *kernel.Process
	var capKept bool
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, _ := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: PolicyHigh,
		}})
		before := th.HW.CapRegs[retCapReg]
		_, err = ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
		depthAfter = kcsDepth(th)
		procAfter = th.Process()
		capKept = th.HW.CapRegs[retCapReg] == before
	})
	var f *codoms.Fault
	if !errors.As(err, &f) {
		t.Fatalf("fault must surface as a CODOMs fault to the caller, got %v", err)
	}
	if depthAfter != 0 {
		t.Fatalf("KCS depth after unwind = %d, want 0", depthAfter)
	}
	if procAfter != w.web {
		t.Fatal("thread not migrated back after unwind")
	}
	if !capKept {
		t.Fatal("caller's capability register not restored after unwind")
	}
}

// buildChain builds web -> php -> db with one entry each and returns the
// outermost imported entry. db runs dbFn; php forwards into db and hands
// the error of that call to inner before it returns.
func buildChain(t *testing.T, w *world, dbFn Func, inner func(th *kernel.Thread, err error)) (php *kernel.Process, outer func(th *kernel.Thread) (*Args, error)) {
	t.Helper()
	php = w.rt.NewProcess("php")
	w.export(t, PolicyLow, dbFn)
	// php imports db and exports run(), which forwards.
	var phpEnts []*ImportedEntry
	w.m.Spawn(php, "php-init", nil, func(th *kernel.Thread) {
		if _, err := w.rt.EnterProcessCode(th); err != nil {
			t.Error(err)
			return
		}
		var err error
		phpEnts, err = w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		dom := w.rt.DomDefault(th)
		eh, err := w.rt.EntryRegister(th, dom, []EntryDesc{{
			Name: "run",
			Fn: func(th *kernel.Thread, in *Args) *Args {
				out, err := phpEnts[0].Call(th, in)
				inner(th, err)
				return out
			},
			Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if err := w.rt.Publish(th, "/run/php.sock", eh); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	outer = func(th *kernel.Thread) (*Args, error) {
		ents, err := w.rt.MustImport(th, "/run/php.sock", []EntryDesc{{
			Name: "run", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			return nil, err
		}
		return ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
	}
	return php, outer
}

func TestNestedFaultUnwindsThroughChain(t *testing.T) {
	// db faults on its return; php has no recovery code, so it returns
	// without its own return capability and faults too. Each proxy
	// unwinds exactly its own frame.
	w := newWorld(1)
	var innerErr error
	var innerDepth int
	var innerProc *kernel.Process
	_, outer := buildChain(t, w, func(th *kernel.Thread, in *Args) *Args {
		th.HW.CapRegs[retCapReg] = codoms.Capability{}
		return &Args{}
	}, func(th *kernel.Thread, err error) {
		innerErr, innerDepth, innerProc = err, kcsDepth(th), th.Process()
		if err != nil {
			th.HW.CapRegs[retCapReg] = codoms.Capability{}
		}
	})
	var err error
	var depth int
	var proc *kernel.Process
	w.run(t, w.web, func(th *kernel.Thread) {
		_, err = outer(th)
		depth = kcsDepth(th)
		proc = th.Process()
	})
	if innerErr == nil {
		t.Fatal("db's fault must reach php")
	}
	if innerDepth != 1 || innerProc == nil || innerProc.Name != "php" {
		t.Fatalf("in php after the inner unwind: depth=%d proc=%v", innerDepth, innerProc)
	}
	if err == nil {
		t.Fatal("nested fault must reach the web caller")
	}
	if depth != 0 || proc != w.web {
		t.Fatalf("after unwind: depth=%d proc=%s", depth, proc.Name)
	}
}

func TestReturnCapabilityProtectsProxyRet(t *testing.T) {
	// A callee that clobbers the return capability register cannot
	// return into proxy_ret: the call fails instead of corrupting P3.
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args {
		th.HW.CapRegs[retCapReg] = codoms.Capability{} // malicious clobber
		return &Args{}
	})
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, _ := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		_, err = ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
	})
	if err == nil {
		t.Fatal("return without the minted capability must fail")
	}
}

func TestTemplateReuse(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, _ := w.rt.Resolve(th, "/run/db.sock")
		d := []EntryDesc{{Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}}}
		_, e1, err := w.rt.EntryRequest(th, eh, d)
		if err != nil {
			t.Error(err)
			return
		}
		before := len(w.rt.templates)
		_, e2, err := w.rt.EntryRequest(th, eh, d)
		if err != nil {
			t.Error(err)
			return
		}
		if len(w.rt.templates) != before {
			t.Error("identical request must reuse the template")
		}
		if e1[0].proxy.tmpl != e2[0].proxy.tmpl {
			t.Error("proxies with same key share one template")
		}
		// A different policy produces a different template.
		_, _, err = w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: PolicyHigh,
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if len(w.rt.templates) == before {
			t.Error("different policy must specialize a new template")
		}
	})
}

func TestTrackProcessColdThenHot(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var first, second, third sim.Time
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, _ := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		s := w.eng.Now()
		ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
		first = w.eng.Now() - s
		s = w.eng.Now()
		ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
		second = w.eng.Now() - s
		// Evict the db tag from the APL cache to force the warm path.
		for i := 0; i < codoms.APLCacheSize; i++ {
			th.HW.Cache.Insert(codoms.Tag(1000 + i))
		}
		s = w.eng.Now()
		ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
		third = w.eng.Now() - s
	})
	p := cost.Default()
	if first-second < p.TrackProcessCold/2 {
		t.Fatalf("first call (%v) should pay the cold upcall vs hot (%v)", first, second)
	}
	if third <= second {
		t.Fatalf("post-eviction call (%v) should pay the warm tree walk vs hot (%v)", third, second)
	}
	if third >= first {
		t.Fatalf("warm path (%v) must be cheaper than cold (%v)", third, first)
	}
}

func TestCrossCallLatencyAnchors(t *testing.T) {
	// Fig. 5 anchors: cross-process dIPC Low ≈ 28× and High ≈ 53× a 2ns
	// function call (≈56ns / ≈106ns). Allow ±40%.
	low := measureCross(t, PolicyLow, PolicyLow)
	high := measureCross(t, PolicyHigh, PolicyHigh)
	if ns := low.Nanoseconds(); ns < 34 || ns > 78 {
		t.Fatalf("dIPC+proc Low = %.1fns, want ~56ns", ns)
	}
	if ns := high.Nanoseconds(); ns < 64 || ns > 148 {
		t.Fatalf("dIPC+proc High = %.1fns, want ~106ns", ns)
	}
	if ratio := float64(high) / float64(low); ratio < 1.4 || ratio > 3 {
		t.Fatalf("High/Low = %.2f, want ~1.9", ratio)
	}
}

// measureCross returns the steady-state round trip of a cross-process
// dIPC call under the given policies.
func measureCross(t *testing.T, callerPol, calleePol IsoProps) sim.Time {
	t.Helper()
	w := newWorld(1)
	w.export(t, calleePol, func(th *kernel.Thread, in *Args) *Args { return in })
	var avg sim.Time
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, err := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: callerPol,
		}})
		if err != nil {
			t.Error(err)
			return
		}
		args := &Args{Regs: []uint64{1, 2}}
		for i := 0; i < 16; i++ { // warm up: cold path, caches
			ents[0].Call(th, args)
		}
		const rounds = 256
		start := w.eng.Now()
		for i := 0; i < rounds; i++ {
			ents[0].Call(th, args)
		}
		avg = (w.eng.Now() - start) / rounds
	})
	return avg
}

func TestGrantCreateEnablesDirectAccess(t *testing.T) {
	// §5.2.2: grant_create can open direct data access between process
	// domains, bypassing proxies entirely. The model does not check data
	// accesses; a capability minted from the APL stands for the access.
	w := newWorld(1)
	var dbData mem.Addr
	// db allocates a pool and hands web a read handle.
	w.m.Spawn(w.db, "db-init", nil, func(th *kernel.Thread) {
		w.rt.EnterProcessCode(th)
		pool := w.rt.DomCreate(th)
		dbData = w.mapDomain(t, th, pool, mem.PageSize)
		w.handoff = DomainHandle{rt: w.rt, tag: pool.tag, perm: PermRead}
	})
	w.eng.Run()
	w.run(t, w.web, func(th *kernel.Thread) {
		ro := w.handoff
		arch := w.rt.M.Arch
		// Before the grant: no access.
		if _, err := arch.NewFromAPL(&th.HW, w.rt.PT, ro.tag, dbData, 8, codoms.PermRead); err == nil {
			t.Error("web read db pool before grant")
		}
		self := w.rt.DomDefault(th)
		if err := w.rt.GrantCreate(th, self, ro); err != nil {
			t.Error(err)
			return
		}
		if got := arch.APLPerm(th.HW.CodeDomain(w.rt.PT), ro.tag); got != codoms.PermRead {
			t.Errorf("web holds %v over the pool after grant, want read", got)
		}
		if _, err := arch.NewFromAPL(&th.HW, w.rt.PT, ro.tag, dbData, 8, codoms.PermRead); err != nil {
			t.Errorf("read after grant: %v", err)
		}
		// Write stays denied (read-only handle).
		if _, err := arch.NewFromAPL(&th.HW, w.rt.PT, ro.tag, dbData, 8, codoms.PermWrite); err == nil {
			t.Error("read grant allowed a write")
		}
	})
}

func TestPolicyMerge(t *testing.T) {
	mp := merge(RegIntegrity|DCSIntegrity, RegConfidentiality|DCSConfIntegrity|StackConfIntegrity)
	if !mp.callerStub.Has(RegIntegrity) || mp.callerStub.Has(RegConfidentiality) {
		t.Fatalf("caller stub = %v", mp.callerStub)
	}
	if !mp.calleeStub.Has(RegConfidentiality) {
		t.Fatalf("callee stub = %v", mp.calleeStub)
	}
	if !mp.proxy.Has(DCSIntegrity) || !mp.proxy.Has(DCSConfIntegrity) || !mp.proxy.Has(StackConfIntegrity) {
		t.Fatalf("proxy props = %v", mp.proxy)
	}
	// Stack confidentiality activates from either side.
	if !merge(StackConfIntegrity, 0).proxy.Has(StackConfIntegrity) {
		t.Fatal("caller-side stack conf ignored")
	}
	if !merge(0, StackConfIntegrity).proxy.Has(StackConfIntegrity) {
		t.Fatal("callee-side stack conf ignored")
	}
	// DCS integrity only activates from the caller.
	if merge(0, DCSIntegrity).proxy.Has(DCSIntegrity) {
		t.Fatal("callee-requested DCS integrity must not activate")
	}
}

func TestResolveUnknownPathFails(t *testing.T) {
	w := newWorld(1)
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		_, err = w.rt.Resolve(th, "/does/not/exist")
	})
	if err == nil {
		t.Fatal("resolving an unpublished path must fail")
	}
}

func TestPublishDuplicateFails(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var err error
	w.run(t, w.db, func(th *kernel.Thread) {
		dom := w.rt.DomDefault(th)
		eh, _ := w.rt.EntryRegister(th, dom, []EntryDesc{{
			Name: "x", Fn: func(th *kernel.Thread, in *Args) *Args { return in },
			Sig: Signature{},
		}})
		err = w.rt.Publish(th, "/run/db.sock", eh)
	})
	if err == nil {
		t.Fatal("duplicate publish must fail")
	}
}
