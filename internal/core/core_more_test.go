package core

import (
	"strings"
	"testing"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
)

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
		if _, err := arch.NewFromAPL(&th.HW, w.rt.PT, ro.tag, buf, 8, codoms.PermRead); err != nil {
			t.Errorf("read after grant: %v", err)
		}
		// grant_revoke sets the APL entry back to nil.
		if err := arch.Grant(self.tag, ro.tag, codoms.PermNil); err != nil {
			t.Error(err)
		}
		if got := arch.APLPerm(self.tag, ro.tag); got != codoms.PermNil {
			t.Errorf("web holds %v over the pool after revoke, want nil", got)
		}
		if _, err := arch.NewFromAPL(&th.HW, w.rt.PT, ro.tag, buf, 8, codoms.PermRead); err == nil {
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
	sig := Signature{InRegs: 2, OutRegs: 1}
	t.Run("callee", func(t *testing.T) {
		w := newWorld(1)
		w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
		var err error
		w.run(t, w.web, func(th *kernel.Thread) {
			ents, _ := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{Name: "query", Sig: sig}})
			w.m.Kill(w.db)
			_, err = ents[0].Call(th, &Args{Regs: []uint64{1, 2}})
		})
		if err == nil || !strings.Contains(err.Error(), `"db" is dead`) {
			t.Fatalf("calling into a dead process: %v, want an error naming db", err)
		}
	})
	t.Run("intermediate process", func(t *testing.T) {
		// web -> php -> db with php killed: web's call fails before it
		// enters php, so db never runs.
		w := newWorld(1)
		dbRan := false
		php, outer := buildChain(t, w, func(th *kernel.Thread, in *Args) *Args {
			dbRan = true
			return in
		}, func(*kernel.Thread, error) {})
		var err error
		var depth int
		var proc *kernel.Process
		w.run(t, w.web, func(th *kernel.Thread) {
			w.m.Kill(php)
			_, err = outer(th)
			depth, proc = kcsDepth(th), th.Process()
		})
		if err == nil || !strings.Contains(err.Error(), `"php" is dead`) {
			t.Fatalf("call into a dead php: %v, want an error naming php", err)
		}
		if dbRan || depth != 0 || proc != w.web {
			t.Fatalf("after the rejected call: db ran=%v, depth=%d, proc=%s", dbRan, depth, proc.Name)
		}
	})
	t.Run("killed mid-chain", func(t *testing.T) {
		// db dies before web's call reaches it: the call into the live
		// php goes through, and php's call into db is rejected.
		w := newWorld(1)
		var innerErr error
		_, outer := buildChain(t, w, func(th *kernel.Thread, in *Args) *Args { return in },
			func(th *kernel.Thread, err error) { innerErr = err })
		var err error
		w.run(t, w.web, func(th *kernel.Thread) {
			w.m.Kill(w.db)
			_, err = outer(th)
		})
		if innerErr == nil || !strings.Contains(innerErr.Error(), `"db" is dead`) {
			t.Fatalf("php's call into a dead db: %v, want an error naming db", innerErr)
		}
		if err != nil {
			t.Fatalf("web's call into the live php: %v", err)
		}
	})
}

func TestHandleWithoutOwnerPermissionRejected(t *testing.T) {
	// EntryRequest returns a call-permission handle to the proxy domain:
	// enough to grant oneself access to it, not to manage it.
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	var grantErr, registerErr error
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, err := w.rt.Resolve(th, "/run/db.sock")
		if err != nil {
			t.Error(err)
			return
		}
		domP, _, err := w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		grantErr = w.rt.GrantCreate(th, domP, w.rt.DomDefault(th))
		_, registerErr = w.rt.EntryRegister(th, domP, []EntryDesc{{
			Name: "evil", Fn: func(th *kernel.Thread, in *Args) *Args { return in },
		}})
	})
	for _, c := range []struct {
		op  string
		err error
	}{{"grant_create", grantErr}, {"entry_register", registerErr}} {
		if c.err == nil || !strings.Contains(c.err.Error(), c.op) || !strings.Contains(c.err.Error(), "owner") {
			t.Errorf("%s with a call handle: %v, want an error naming %s and owner", c.op, c.err, c.op)
		}
	}
}
