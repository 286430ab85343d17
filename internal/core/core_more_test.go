package core

import (
	"testing"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

func TestCapabilityArgumentsFlowThroughDCS(t *testing.T) {
	// A caller passes a capability argument on the DCS under the
	// DCS-confidentiality policy: the callee sees exactly that one
	// entry, uses it to access the caller's buffer, and pushes a result
	// capability back.
	w := newWorld(1)
	var calleeSaw int
	var calleeAccess error
	var callerBuf mem.Addr
	capSig := Signature{InRegs: 2, OutRegs: 1, CapArgs: 1, CapRets: 1}
	w.m.Spawn(w.db, "db-init", nil, func(th *kernel.Thread) {
		w.rt.EnterProcessCode(th)
		eh, err := w.rt.EntryRegister(th, w.rt.DomDefault(th), []EntryDesc{{
			Name: "query",
			Fn: func(th *kernel.Thread, in *Args) *Args {
				calleeSaw = th.HW.DCS.Depth()
				if cap, err := th.HW.DCS.Pop(); err == nil {
					// Pop loads the capability into a register; only
					// register-resident capabilities authorize accesses.
					saved := th.HW.CapRegs[0]
					th.HW.CapRegs[0] = cap
					calleeAccess = w.rt.M.Arch.Check(th.HW, w.rt.PT, cap.Base, 8, codoms.AccessRead)
					th.HW.CapRegs[0] = saved
					_ = th.HW.DCS.Push(cap) // pass it back as the result
				}
				return &Args{}
			},
			Sig:    capSig,
			Policy: DCSConfIntegrity,
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if err := w.rt.Publish(th, "/run/db.sock", eh); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	w.run(t, w.web, func(th *kernel.Thread) {
		// Allocate a buffer in the caller's domain and mint an async
		// capability over it.
		self := w.rt.DomDefault(th)
		callerBuf = w.mapDomain(t, th, self, mem.PageSize)
		rc := &codoms.RevCounter{}
		cap, err := w.rt.M.Arch.NewFromAPL(th.HW, w.rt.PT, self.tag, callerBuf, 256,
			codoms.PermRead, codoms.CapAsync, rc)
		if err != nil {
			t.Error(err)
			return
		}
		if err := th.HW.DCS.Push(cap); err != nil {
			t.Error(err)
			return
		}
		ents, err := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: capSig, Policy: DCSConfIntegrity,
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ents[0].Call(th, &Args{Regs: []uint64{1, 2}}); err != nil {
			t.Error(err)
			return
		}
		// The result capability came back on the caller's stack.
		if th.HW.DCS.Depth() != 1 {
			t.Errorf("caller DCS depth after call = %d, want 1 result", th.HW.DCS.Depth())
		}
	})
	if calleeSaw != 1 {
		t.Fatalf("callee saw %d DCS entries, want exactly the 1 argument", calleeSaw)
	}
	if calleeAccess != nil {
		t.Fatalf("callee could not use the passed capability: %v", calleeAccess)
	}
}

func TestSigMismatchOnCapArgsRejected(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, _ := w.rt.Resolve(th, "/run/db.sock")
		_, _, err = w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1, CapArgs: 3},
		}})
	})
	if err == nil {
		t.Fatal("capability-argument count is part of the P4 signature")
	}
}

func TestKCSDepthDuringNestedCalls(t *testing.T) {
	w := newWorld(1)
	php := w.rt.NewProcess("php")
	var depthInDB int
	// db leaf records the depth.
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args {
		depthInDB = kcsDepth(th)
		return &Args{Regs: []uint64{1}}
	})
	var phpEnts []*ImportedEntry
	w.m.Spawn(php, "php-init", nil, func(th *kernel.Thread) {
		w.rt.EnterProcessCode(th)
		var err error
		phpEnts, err = w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		eh, err := w.rt.EntryRegister(th, w.rt.DomDefault(th), []EntryDesc{{
			Name: "run",
			Fn: func(th *kernel.Thread, in *Args) *Args {
				out, err := phpEnts[0].Call(th, in)
				if err != nil {
					t.Error(err)
				}
				return out
			},
			Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		w.rt.Publish(th, "/run/php.sock", eh)
	})
	w.eng.Run()
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, err := w.rt.MustImport(th, "/run/php.sock", []EntryDesc{{
			Name: "run", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ents[0].Call(th, &Args{Regs: []uint64{1, 2}}); err != nil {
			t.Error(err)
		}
		if d := kcsDepth(th); d != 0 {
			t.Errorf("depth after return = %d", d)
		}
	})
	if depthInDB != 2 {
		t.Fatalf("KCS depth inside the leaf = %d, want 2 (web->php->db)", depthInDB)
	}
}

func TestFoldStubsCostsMore(t *testing.T) {
	// §7.4: folded stubs assume worst-case register liveness, so calls
	// cost more than with compiler-inlined stubs.
	measure := func(fold bool) sim.Time {
		w := newWorld(1)
		w.rt.FoldStubs = fold
		w.export(t, PolicyHigh, func(th *kernel.Thread, in *Args) *Args { return in })
		var avg sim.Time
		w.run(t, w.web, func(th *kernel.Thread) {
			ents, err := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
				Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: PolicyHigh,
			}})
			if err != nil {
				t.Error(err)
				return
			}
			args := &Args{Regs: []uint64{1, 2}}
			for i := 0; i < 16; i++ {
				ents[0].Call(th, args)
			}
			start := w.eng.Now()
			for i := 0; i < 128; i++ {
				ents[0].Call(th, args)
			}
			avg = (w.eng.Now() - start) / 128
		})
		return avg
	}
	inlined := measure(false)
	folded := measure(true)
	if folded <= inlined {
		t.Fatalf("folded stubs (%v) must cost more than inlined (%v)", folded, inlined)
	}
}

func TestTemplateCountScalesWithVariants(t *testing.T) {
	w := newWorld(1)
	w.m.Spawn(w.db, "init", nil, func(th *kernel.Thread) {
		w.rt.EnterProcessCode(th)
		dom := w.rt.DomDefault(th)
		id := func(th *kernel.Thread, in *Args) *Args { return in }
		// Register entries with varied signatures and policies; each
		// combination specializes its own template (§6.1.1).
		var descs []EntryDesc
		for in := 1; in <= 4; in++ {
			for _, pol := range []IsoProps{0, RegIntegrity, PolicyHigh} {
				descs = append(descs, EntryDesc{
					Name: "f", Fn: id,
					Sig:    Signature{InRegs: in, OutRegs: 1},
					Policy: pol,
				})
			}
		}
		eh, err := w.rt.EntryRegister(th, dom, descs)
		if err != nil {
			t.Error(err)
			return
		}
		req := make([]EntryDesc, len(descs))
		for i, d := range descs {
			req[i] = EntryDesc{Name: d.Name, Sig: d.Sig}
		}
		if _, _, err := w.rt.EntryRequest(th, eh, req); err != nil {
			t.Error(err)
		}
	})
	w.eng.Run()
	// 4 register counts × (policy variants that differ in proxy-visible
	// properties). RegIntegrity lives in stubs (not folded here), so 0
	// and RegIntegrity share templates: expect 4 × 2 distinct.
	if got := len(w.rt.templates); got != 8 {
		t.Fatalf("template count = %d, want 8", got)
	}
}

func TestGrantRevokeCutsDirectAccess(t *testing.T) {
	w := newWorld(1)
	w.run(t, w.web, func(th *kernel.Thread) {
		pool := w.rt.DomCreate(th)
		buf := w.mapDomain(t, th, pool, mem.PageSize)
		self := w.rt.DomDefault(th)
		ro := DomainHandle{rt: w.rt, tag: pool.tag, perm: PermRead}
		if err := w.rt.GrantCreate(th, self, ro); err != nil {
			t.Error(err)
			return
		}
		arch := w.rt.M.Arch
		if err := arch.Check(th.HW, w.rt.PT, buf, 8, codoms.AccessRead); err != nil {
			t.Errorf("read after grant: %v", err)
		}
		// grant_revoke sets the APL entry back to nil.
		if err := arch.Grant(self.tag, ro.tag, codoms.PermNil); err != nil {
			t.Error(err)
		}
		if err := arch.Check(th.HW, w.rt.PT, buf, 8, codoms.AccessRead); err == nil {
			t.Error("read after revoke must fault")
		}
	})
}

func TestEnterProcessCodeIdempotent(t *testing.T) {
	w := newWorld(1)
	w.run(t, w.web, func(th *kernel.Thread) {
		a, err := w.rt.EnterProcessCode(th)
		if err != nil {
			t.Error(err)
			return
		}
		b, err := w.rt.EnterProcessCode(th)
		if err != nil || a != b {
			t.Errorf("second enter moved the code page: %#x vs %#x (%v)", a, b, err)
		}
	})
}

func TestProxyCodePagesArePrivileged(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, _ := w.rt.Resolve(th, "/run/db.sock")
		_, ents, err := w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		pi, ok := w.rt.PT.Lookup(ents[0].proxy.addr)
		if !ok {
			t.Error("proxy entry not mapped")
			return
		}
		if !pi.Flags.Has(mem.FlagPrivCap) || !pi.Flags.Has(mem.FlagExec) {
			t.Errorf("proxy page flags = %b, want exec+privileged", pi.Flags)
		}
		if ents[0].proxy.addr%w.rt.M.Arch.EntryAlign != 0 {
			t.Error("proxy entry not aligned (P2)")
		}
	})
}

func TestDeadCalleeRejectedUpFront(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var err error
	w.run(t, w.web, func(th *kernel.Thread) {
		ents, _ := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		w.m.Kill(w.db)
		_, err = ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
	})
	if err == nil {
		t.Fatal("calling into a dead process must fail")
	}
}
