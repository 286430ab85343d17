package codoms

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// fig4 builds the example of Figure 4: domain A holds pages 1,2,4,7 and
// may call into B's entry points; domain B holds page 3 and may read
// (and thus jump anywhere into) C; domain C holds pages 0,5,6.
func fig4(t *testing.T) (s *System, pt *mem.PageTable, a, b, c *Domain) {
	t.Helper()
	s = NewSystem()
	pt = mem.NewPageTable()
	a, b, c = s.NewDomain(), s.NewDomain(), s.NewDomain()
	pageOwner := map[int]*Domain{0: c, 1: a, 2: a, 3: b, 4: a, 5: c, 6: c, 7: a}
	for page, d := range pageOwner {
		if err := pt.Map(mem.Addr(page)*mem.PageSize, 1, mem.FlagWrite|mem.FlagExec, d.Tag); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Grant(a.Tag, b.Tag, PermCall); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(b.Tag, c.Tag, PermRead); err != nil {
		t.Fatal(err)
	}
	return s, pt, a, b, c
}

// ctxAt returns a thread context executing inside the given page.
func ctxAt(page int, off mem.Addr) *ThreadCtx {
	ctx := NewThreadCtx()
	ctx.SetIP(mem.Addr(page)*mem.PageSize + off)
	return ctx
}

func TestFig4SelfAccess(t *testing.T) {
	s, pt, _, _, _ := fig4(t)
	ctx := ctxAt(1, 0) // executing in A
	if err := s.Check(ctx, pt, 2*mem.PageSize+100, 8, AccessWrite); err != nil {
		t.Fatalf("A writing its own page 2: %v", err)
	}
	if err := s.Check(ctx, pt, 7*mem.PageSize, 8, AccessRead); err != nil {
		t.Fatalf("A reading its own page 7: %v", err)
	}
}

func TestFig4CallPermission(t *testing.T) {
	s, pt, _, _, _ := fig4(t)
	ctx := ctxAt(1, 0) // executing in A
	// Aligned entry point in B (page 3).
	if err := s.CheckCall(ctx, pt, 3*mem.PageSize); err != nil {
		t.Fatalf("A calling B's entry point: %v", err)
	}
	// Unaligned target in B must be rejected for call-only permission.
	if err := s.CheckCall(ctx, pt, 3*mem.PageSize+8); err == nil {
		t.Fatal("A called an unaligned address in B")
	}
	// A has no authority over C at all.
	if err := s.CheckCall(ctx, pt, 5*mem.PageSize); err == nil {
		t.Fatal("A called into C without any grant")
	}
	// A cannot read B either: call permission is not read.
	if err := s.Check(ctx, pt, 3*mem.PageSize, 8, AccessRead); err == nil {
		t.Fatal("A read B with only call permission")
	}
}

func TestFig4CodeCentricSubjectSwitch(t *testing.T) {
	s, pt, _, _, _ := fig4(t)
	ctx := ctxAt(1, 0) // executing in A
	// A cannot touch C...
	if err := s.Check(ctx, pt, 5*mem.PageSize, 4, AccessRead); err == nil {
		t.Fatal("A read C")
	}
	// ...but after calling into B, the *instruction pointer* is the
	// subject, so C becomes readable (B has read on C).
	var v CallVerdict
	if err := s.CallCached(ctx, pt, 3*mem.PageSize, &v); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(ctx, pt, 5*mem.PageSize, 4, AccessRead); err != nil {
		t.Fatalf("B reading C: %v", err)
	}
	// Read permission allows jumping to arbitrary addresses in C.
	if err := s.CheckCall(ctx, pt, 6*mem.PageSize+24); err != nil {
		t.Fatalf("B jumping into C mid-page: %v", err)
	}
	// But read is not write.
	if err := s.Check(ctx, pt, 5*mem.PageSize, 4, AccessWrite); err == nil {
		t.Fatal("B wrote C with read permission")
	}
}

func TestPageBitsHonoredOverAPL(t *testing.T) {
	s := NewSystem()
	pt := mem.NewPageTable()
	a, b := s.NewDomain(), s.NewDomain()
	if err := pt.Map(0, 1, mem.FlagExec, a.Tag); err != nil { // code page of A
		t.Fatal(err)
	}
	if err := pt.Map(mem.PageSize, 1, 0, b.Tag); err != nil { // read-only page of B
		t.Fatal(err)
	}
	if err := s.Grant(a.Tag, b.Tag, PermWrite); err != nil {
		t.Fatal(err)
	}
	ctx := ctxAt(0, 0)
	if err := s.Check(ctx, pt, mem.PageSize, 4, AccessRead); err != nil {
		t.Fatalf("read should pass: %v", err)
	}
	// APL write grant cannot override the page's read-only bit (§4.1).
	if err := s.Check(ctx, pt, mem.PageSize, 4, AccessWrite); err == nil {
		t.Fatal("write to read-only page allowed by APL grant")
	}
}

func TestAccessSpanningDomainsFaults(t *testing.T) {
	s, pt, a, _, _ := fig4(t)
	_ = a
	ctx := ctxAt(1, 0)
	// Pages 1 (A) and 0 would be fine individually... pick 4 (A) and 5 (C):
	va := mem.Addr(4*mem.PageSize + mem.PageSize - 4)
	if err := s.Check(ctx, pt, va, 16, AccessRead); err == nil {
		t.Fatal("access spanning two domains must fault")
	}
}

func TestGrantRevoke(t *testing.T) {
	s, pt, a, b, _ := fig4(t)
	ctx := ctxAt(1, 0)
	if err := s.Grant(a.Tag, b.Tag, PermWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(ctx, pt, 3*mem.PageSize, 4, AccessWrite); err != nil {
		t.Fatalf("write after grant upgrade: %v", err)
	}
	if err := s.Grant(a.Tag, b.Tag, PermNil); err != nil { // grant_revoke
		t.Fatal(err)
	}
	if err := s.Check(ctx, pt, 3*mem.PageSize, 4, AccessRead); err == nil {
		t.Fatal("access after revoke")
	}
	// Grants involving unknown domains fail.
	if err := s.Grant(Tag(999), b.Tag, PermRead); err == nil {
		t.Fatal("grant from unknown domain")
	}
	if err := s.Grant(a.Tag, Tag(999), PermRead); err == nil {
		t.Fatal("grant to unknown domain")
	}
}

func TestCapabilityFromAPL(t *testing.T) {
	s, pt, _, b, c := fig4(t)
	_ = b
	ctx := ctxAt(3, 0) // executing in B, which has read over C
	cap, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 64, PermRead, CapSync, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cap.Covers(5*mem.PageSize+32, 8, PermRead) {
		t.Fatal("capability does not cover its own range")
	}
	// Cannot mint more authority than the APL holds.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 64, PermWrite, CapSync, nil); err == nil {
		t.Fatal("minted write capability from read grant")
	}
	// Cannot mint over pages of a different domain.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 1*mem.PageSize, 64, PermRead, CapSync, nil); err == nil {
		t.Fatal("minted capability over foreign pages")
	}
	// Unmapped pages are rejected.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 100*mem.PageSize, 64, PermRead, CapSync, nil); err == nil {
		t.Fatal("minted capability over unmapped pages")
	}
}

func TestCapabilityAuthorizesAccess(t *testing.T) {
	s, pt, a, _, c := fig4(t)
	_ = a
	// B mints a read capability over part of C and "passes" it to a
	// thread executing in A (async capabilities may cross threads).
	bctx := ctxAt(3, 0)
	rc := &RevCounter{}
	cap, err := s.NewFromAPL(bctx, pt, c.Tag, 5*mem.PageSize, 256, PermRead, CapAsync, rc)
	if err != nil {
		t.Fatal(err)
	}
	actx := ctxAt(1, 0)
	actx.CapRegs[2] = cap
	if err := s.Check(actx, pt, 5*mem.PageSize+8, 16, AccessRead); err != nil {
		t.Fatalf("capability-authorized read failed: %v", err)
	}
	// Out of capability bounds fails.
	if err := s.Check(actx, pt, 5*mem.PageSize+300, 16, AccessRead); err == nil {
		t.Fatal("read beyond capability bounds allowed")
	}
	// Immediate revocation (§4.2).
	rc.Revoke()
	if err := s.Check(actx, pt, 5*mem.PageSize+8, 16, AccessRead); err == nil {
		t.Fatal("revoked capability still authorizes")
	}
}

func TestSyncCapabilityIsThreadPrivate(t *testing.T) {
	s, pt, _, _, c := fig4(t)
	bctx := ctxAt(3, 0)
	cap, err := s.NewFromAPL(bctx, pt, c.Tag, 5*mem.PageSize, 64, PermRead, CapSync, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := ctxAt(1, 0)
	other.CapRegs[0] = cap
	if err := s.Check(other, pt, 5*mem.PageSize, 8, AccessRead); err == nil {
		t.Fatal("synchronous capability honoured on a foreign thread")
	}
	// It does work on its owner.
	bctx.CapRegs[0] = cap
	bctx.SetIP(1 * mem.PageSize) // even from other code (owner thread is what counts)
	if err := s.Check(bctx, pt, 5*mem.PageSize, 8, AccessRead); err != nil {
		t.Fatalf("owner thread denied: %v", err)
	}
}

func TestDeriveNeverWidens(t *testing.T) {
	parent := Capability{Base: 0x1000, Size: 0x1000, Perm: PermRead, Kind: CapSync, valid: true}
	if _, err := Derive(parent, 0x1000, 16, PermWrite); err == nil {
		t.Fatal("derive widened permission")
	}
	if _, err := Derive(parent, 0x1800, 0x1000, PermRead); err == nil {
		t.Fatal("derive escaped range")
	}
	child, err := Derive(parent, 0x1800, 0x100, PermCall)
	if err != nil {
		t.Fatal(err)
	}
	if child.Perm != PermCall || child.Base != 0x1800 {
		t.Fatalf("child = %+v", child)
	}
}

func TestDerivePropertyNarrowing(t *testing.T) {
	f := func(baseOff, size uint16, permRaw uint8) bool {
		parent := Capability{Base: 0x10000, Size: 0x10000, Perm: PermWrite, Kind: CapSync, valid: true}
		b := parent.Base + mem.Addr(baseOff)
		sz := int(size)%0x1000 + 1
		perm := Perm(permRaw % 4)
		child, err := Derive(parent, b, sz, perm)
		if err != nil {
			// Allowed to fail only if out of range (perm can't exceed write).
			return b+mem.Addr(sz) > parent.Base+parent.Size
		}
		return child.Perm <= parent.Perm &&
			child.Base >= parent.Base &&
			child.Base+child.Size <= parent.Base+parent.Size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilityStorageBits(t *testing.T) {
	s := NewSystem()
	pt := mem.NewPageTable()
	d := s.NewDomain()
	if err := pt.Map(0, 1, mem.FlagExec, d.Tag); err != nil {
		t.Fatal(err)
	}
	// Page 1: ordinary data; page 2: capability storage.
	if err := pt.Map(1*mem.PageSize, 1, mem.FlagWrite, d.Tag); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(2*mem.PageSize, 1, mem.FlagWrite|mem.FlagCapStore, d.Tag); err != nil {
		t.Fatal(err)
	}
	ctx := ctxAt(0, 0)
	// Capabilities can only go to capability-storage pages.
	if err := s.Check(ctx, pt, 1*mem.PageSize, CapSizeBytes, AccessCapStore); err == nil {
		t.Fatal("capability store to plain page allowed")
	}
	if err := s.Check(ctx, pt, 2*mem.PageSize, CapSizeBytes, AccessCapStore); err != nil {
		t.Fatalf("capability store to tagged page: %v", err)
	}
	if err := s.Check(ctx, pt, 2*mem.PageSize, CapSizeBytes, AccessCapLoad); err != nil {
		t.Fatalf("capability load from tagged page: %v", err)
	}
	// User code cannot tamper with stored capabilities via plain loads
	// and stores (§4.2).
	if err := s.Check(ctx, pt, 2*mem.PageSize, 8, AccessWrite); err == nil {
		t.Fatal("plain store to capability storage allowed")
	}
	if err := s.Check(ctx, pt, 2*mem.PageSize, 8, AccessRead); err == nil {
		t.Fatal("plain load from capability storage allowed")
	}
}

func TestPrivilegedCapabilityBit(t *testing.T) {
	s := NewSystem()
	pt := mem.NewPageTable()
	d := s.NewDomain()
	if err := pt.Map(0, 1, mem.FlagExec, d.Tag); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(mem.PageSize, 1, mem.FlagExec|mem.FlagPrivCap, d.Tag); err != nil {
		t.Fatal(err)
	}
	ctx := ctxAt(0, 0)
	if err := s.CheckPriv(ctx, pt); err == nil {
		t.Fatal("privileged instruction allowed from plain page")
	}
	ctx.SetIP(mem.PageSize)
	if err := s.CheckPriv(ctx, pt); err != nil {
		t.Fatalf("privileged page denied: %v", err)
	}
}

func TestDCSPushPopAndBase(t *testing.T) {
	d := NewDCS(4)
	c := Capability{Base: 1, Size: 1, Perm: PermRead, valid: true}
	for i := 0; i < 4; i++ {
		if err := d.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Push(c); err == nil {
		t.Fatal("overflow not detected")
	}
	// Raise the base (what a proxy does to hide caller entries).
	old, err := d.SetBase(3)
	if err != nil || old != 0 {
		t.Fatalf("SetBase = %d, %v", old, err)
	}
	if d.Depth() != 1 {
		t.Fatalf("visible depth = %d, want 1", d.Depth())
	}
	if _, err := d.Pop(); err != nil {
		t.Fatal(err)
	}
	// The callee cannot pop beyond the proxied base.
	if _, err := d.Pop(); err == nil {
		t.Fatal("pop below base allowed")
	}
	if _, err := d.SetBase(old); err != nil {
		t.Fatal(err)
	}
	if d.Depth() != 3 {
		t.Fatalf("depth after restore = %d, want 3", d.Depth())
	}
	if _, err := d.SetBase(99); err == nil {
		t.Fatal("out-of-range base allowed")
	}
}

func TestDCSSwitchRestore(t *testing.T) {
	d := NewDCS(8)
	mk := func(base mem.Addr) Capability {
		return Capability{Base: base, Size: 1, Perm: PermRead, valid: true}
	}
	for i := 1; i <= 3; i++ {
		if err := d.Push(mk(mem.Addr(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Switch with one capability argument.
	tok, err := d.SwitchTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Depth() != 1 {
		t.Fatalf("fresh stack depth = %d, want 1 (the argument)", d.Depth())
	}
	arg, err := d.Pop()
	if err != nil || arg.Base != 3 {
		t.Fatalf("argument = %+v, %v", arg, err)
	}
	// Callee pushes a result.
	if err := d.Push(mk(42)); err != nil {
		t.Fatal(err)
	}
	if err := d.RestoreFrom(tok, 1); err != nil {
		t.Fatal(err)
	}
	if d.Depth() != 3 { // two original entries + one result
		t.Fatalf("restored depth = %d, want 3", d.Depth())
	}
	res, _ := d.Pop()
	if res.Base != 42 {
		t.Fatalf("result = %+v", res)
	}
	// The callee's private pushes are gone; caller entries intact.
	a, _ := d.Pop()
	b, _ := d.Pop()
	if a.Base != 2 || b.Base != 1 {
		t.Fatalf("caller stack corrupted: %v %v", a.Base, b.Base)
	}
}

// TestDCSEdgesFromEmpty runs the capability stack's edge cases on a
// stack that starts with no slots and grows on demand.
func TestDCSEdgesFromEmpty(t *testing.T) {
	const limit = 4
	mk := func(base int) Capability {
		return Capability{Base: mem.Addr(base), Size: 1, Perm: PermRead, valid: true}
	}
	push := func(d *DCS, n int) error {
		for i := 1; i <= n; i++ {
			if err := d.Push(mk(d.Top() + 1)); err != nil {
				return err
			}
		}
		return nil
	}
	// wantStack pops d empty and checks it held want[0] on top, then
	// want[1], and so on.
	wantStack := func(d *DCS, want ...int) error {
		for _, w := range want {
			if c, err := d.Pop(); err != nil || int(c.Base) != w {
				return fmt.Errorf("pop = %+v, %v; want Base %d", c, err, w)
			}
		}
		if d.Depth() != 0 {
			return fmt.Errorf("depth %d after popping %d entries", d.Depth(), len(want))
		}
		return nil
	}
	for _, tc := range []struct {
		name  string
		limit int
		run   func(d *DCS) error
	}{
		{"switch and restore an unused stack", limit, func(d *DCS) error {
			tok, err := d.SwitchTo(0)
			if err != nil {
				return err
			}
			if d.Depth() != 0 {
				return fmt.Errorf("fresh stack depth %d", d.Depth())
			}
			if err := d.RestoreFrom(tok, 0); err != nil {
				return err
			}
			return wantStack(d)
		}},
		{"push to the limit, then overflow", limit, func(d *DCS) error {
			if err := push(d, limit); err != nil {
				return err
			}
			err := d.Push(mk(99))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit %d", limit)) {
				return fmt.Errorf("push past the limit: %v, want an overflow naming limit %d", err, limit)
			}
			return wantStack(d, 4, 3, 2, 1)
		}},
		{"pop below the base", limit, func(d *DCS) error {
			if err := push(d, 2); err != nil {
				return err
			}
			if _, err := d.SetBase(2); err != nil {
				return err
			}
			if _, err := d.Pop(); err == nil {
				return fmt.Errorf("pop below the base allowed")
			}
			if _, err := d.SetBase(0); err != nil {
				return err
			}
			return wantStack(d, 2, 1)
		}},
		{"re-restore after an overflowed restore", limit, func(d *DCS) error {
			if err := push(d, limit); err != nil {
				return err
			}
			tok, err := d.SwitchTo(1)
			if err != nil {
				return err
			}
			if err := push(d, 1); err != nil {
				return err
			}
			if err := d.RestoreFrom(tok, 2); err == nil {
				return fmt.Errorf("copy-back into a full caller stack did not overflow")
			}
			if err := d.RestoreFrom(tok, 0); err != nil {
				return err
			}
			return wantStack(d, 3, 2, 1)
		}},
		{"re-restore after a restore that grew the caller stack", 6, func(d *DCS) error {
			if err := push(d, 4); err != nil {
				return err
			}
			tok, err := d.SwitchTo(0)
			if err != nil {
				return err
			}
			if err := push(d, 3); err != nil {
				return err
			}
			if err := d.RestoreFrom(tok, 3); err == nil {
				return fmt.Errorf("copy-back past the limit did not overflow")
			}
			if err := d.RestoreFrom(tok, 0); err != nil {
				return err
			}
			// A later switch must not hand out the caller's stack.
			tok, err = d.SwitchTo(0)
			if err != nil {
				return err
			}
			if err := push(d, 2); err != nil {
				return err
			}
			if err := d.RestoreFrom(tok, 0); err != nil {
				return err
			}
			return wantStack(d, 4, 3, 2, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(NewDCS(tc.limit)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAPLCacheInsertLookup(t *testing.T) {
	c := NewAPLCache()
	hw1 := c.Insert(Tag(10))
	hw2 := c.Insert(Tag(20))
	if hw1 == hw2 {
		t.Fatal("hardware tags collide")
	}
	if got, ok := c.Lookup(Tag(10)); !ok || got != hw1 {
		t.Fatalf("lookup = %d, %v", got, ok)
	}
	// Re-insert is idempotent.
	if got := c.Insert(Tag(10)); got != hw1 {
		t.Fatalf("re-insert changed hw tag: %d vs %d", got, hw1)
	}
	if _, err := c.HWTagOf(Tag(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HWTagOf(Tag(99)); err == nil {
		t.Fatal("HWTagOf on missing domain must fail")
	}
}

func TestAPLCacheEviction(t *testing.T) {
	c := NewAPLCache()
	for i := 1; i <= APLCacheSize; i++ {
		c.Insert(Tag(i))
	}
	// All 32 resident with distinct 5-bit tags.
	seen := map[uint8]bool{}
	for i := 1; i <= APLCacheSize; i++ {
		hw, ok := c.Lookup(Tag(i))
		if !ok || seen[hw] {
			t.Fatalf("tag %d: ok=%v hw=%d dup=%v", i, ok, hw, seen[hw])
		}
		seen[hw] = true
	}
	// One more evicts somebody.
	c.Insert(Tag(100))
	resident := 0
	for i := 1; i <= APLCacheSize; i++ {
		if _, ok := c.Lookup(Tag(i)); ok {
			resident++
		}
	}
	if resident != APLCacheSize-1 {
		t.Fatalf("resident = %d, want %d", resident, APLCacheSize-1)
	}
}

func TestPermOrdering(t *testing.T) {
	if !(PermNil < PermCall && PermCall < PermRead && PermRead < PermWrite) {
		t.Fatal("permission ordering broken")
	}
	if PermWrite.String() != "write" || PermNil.String() != "nil" {
		t.Fatal("permission names broken")
	}
}
