package core

import (
	"testing"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// TestRevocationInvalidatesCachedVerdicts pins the precompiled call
// descriptor's safety contract: a cached check verdict must not outlive
// the APL grant it was derived from. After the caller's grant to the
// proxy domain is revoked, the very next call must fault; re-granting
// must make it succeed again (under a fresh epoch).
func TestRevocationInvalidatesCachedVerdicts(t *testing.T) {
	w := newWorld(1)
	w.export(t, PolicyLow, func(th *kernel.Thread, in *Args) *Args { return in })
	w.run(t, w.web, func(th *kernel.Thread) {
		eh, err := w.rt.Resolve(th, "/run/db.sock")
		if err != nil {
			t.Fatal(err)
		}
		domP, ents, err := w.rt.EntryRequest(th, eh, []EntryDesc{{
			Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: PolicyLow,
		}})
		if err != nil {
			t.Fatal(err)
		}
		self := w.rt.DomDefault(th)
		if err := w.rt.GrantCreate(th, self, domP); err != nil {
			t.Fatal(err)
		}
		args := &Args{Regs: []uint64{1, 2}}
		for i := 0; i < 3; i++ { // warm every verdict cache
			if _, err := ents[0].Call(th, args); err != nil {
				t.Fatalf("warm call %d: %v", i, err)
			}
		}
		// grant_revoke: clear the caller's APL entry for the proxy domain.
		if err := w.rt.M.Arch.Grant(self.tag, domP.tag, codoms.PermNil); err != nil {
			t.Fatal(err)
		}
		if _, err := ents[0].Call(th, args); err == nil {
			t.Fatal("call succeeded through a revoked grant: stale cached verdict")
		}
		if err := w.rt.GrantCreate(th, self, domP); err != nil {
			t.Fatal(err)
		}
		if out, err := ents[0].Call(th, args); err != nil || out == nil {
			t.Fatalf("call after re-grant: %v", err)
		}
	})
}

// TestCachedCallPathChargesIdenticalCosts asserts that descriptor
// precompilation and verdict caching change how fast the simulator runs,
// not what it simulates: once the process-tracking caches are warm
// (after the first call), every call advances simulated time by exactly
// the same amount — the cached path may not drop or add a single charged
// picosecond relative to its own first warm execution.
func TestCachedCallPathChargesIdenticalCosts(t *testing.T) {
	for _, pol := range []IsoProps{PolicyLow, PolicyHigh} {
		w := newWorld(1)
		w.export(t, pol, func(th *kernel.Thread, in *Args) *Args { return in })
		var deltas []sim.Time
		w.run(t, w.web, func(th *kernel.Thread) {
			ents, err := w.rt.MustImport(th, "/run/db.sock", []EntryDesc{{
				Name: "query", Sig: Signature{InRegs: 2, OutRegs: 1}, Policy: pol,
			}})
			if err != nil {
				t.Error(err)
				return
			}
			args := &Args{Regs: []uint64{1, 2}}
			if _, err := ents[0].Call(th, args); err != nil { // cold track path
				t.Error(err)
				return
			}
			for i := 0; i < 6; i++ {
				start := w.eng.Now()
				if _, err := ents[0].Call(th, args); err != nil {
					t.Error(err)
					return
				}
				deltas = append(deltas, w.eng.Now()-start)
			}
		})
		for i, d := range deltas {
			if d != deltas[0] {
				t.Fatalf("policy %v: call %d took %v, first warm call took %v", pol, i+1, d, deltas[0])
			}
		}
		if len(deltas) == 0 || deltas[0] == 0 {
			t.Fatalf("policy %v: no simulated time charged (deltas %v)", pol, deltas)
		}
	}
}
