package codoms

import (
	"testing"

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
		if err := pt.Map(mem.Addr(page)*mem.PageSize, 1, mem.FlagExec, d.Tag); err != nil {
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
	ctx := &ThreadCtx{}
	ctx.SetIP(mem.Addr(page)*mem.PageSize + off)
	return ctx
}

func TestFig4SelfAccess(t *testing.T) {
	s, pt, a, _, _ := fig4(t)
	ctx := ctxAt(1, 0) // executing in A
	if got := ctx.CodeDomain(pt); got != a.Tag {
		t.Fatalf("subject domain = %d, want A (%d)", got, a.Tag)
	}
	// A domain implicitly holds write over itself.
	if _, err := s.NewFromAPL(ctx, pt, a.Tag, 2*mem.PageSize+100, 8, PermWrite); err != nil {
		t.Fatalf("A minting write over its own page 2: %v", err)
	}
	if _, err := s.NewFromAPL(ctx, pt, a.Tag, 7*mem.PageSize, 8, PermRead); err != nil {
		t.Fatalf("A minting read over its own page 7: %v", err)
	}
	// Its own code is callable at any address, aligned or not.
	if err := s.CheckCall(ctx, pt, 7*mem.PageSize+24); err != nil {
		t.Fatalf("A calling into its own page 7 mid-page: %v", err)
	}
}

func TestFig4CallPermission(t *testing.T) {
	s, pt, a, b, _ := fig4(t)
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
	if got := s.APLPerm(a.Tag, b.Tag); got != PermCall {
		t.Fatalf("A holds %v over B, want call", got)
	}
	if _, err := s.NewFromAPL(ctx, pt, b.Tag, 3*mem.PageSize, 8, PermRead); err == nil {
		t.Fatal("A minted a read capability over B with only call permission")
	}
}

func TestFig4CodeCentricSubjectSwitch(t *testing.T) {
	s, pt, _, _, c := fig4(t)
	ctx := ctxAt(1, 0) // executing in A
	// A cannot read C...
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 4, PermRead); err == nil {
		t.Fatal("A minted a read capability over C")
	}
	// ...but after calling into B, the *instruction pointer* is the
	// subject, so C becomes readable (B has read on C).
	var v CallVerdict
	if err := s.CallCached(ctx, pt, 3*mem.PageSize, &v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 4, PermRead); err != nil {
		t.Fatalf("B minting read over C: %v", err)
	}
	// Read permission allows jumping to arbitrary addresses in C.
	if err := s.CheckCall(ctx, pt, 6*mem.PageSize+24); err != nil {
		t.Fatalf("B jumping into C mid-page: %v", err)
	}
	// But read is not write.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 4, PermWrite); err == nil {
		t.Fatal("B minted a write capability over C with read permission")
	}
}

func TestPageBitsHonoredOverAPL(t *testing.T) {
	s := NewSystem()
	pt := mem.NewPageTable()
	a, b := s.NewDomain(), s.NewDomain()
	if err := pt.Map(0, 1, mem.FlagExec, a.Tag); err != nil { // code page of A
		t.Fatal(err)
	}
	if err := pt.Map(mem.PageSize, 1, 0, b.Tag); err != nil { // data page of B
		t.Fatal(err)
	}
	if err := pt.Map(2*mem.PageSize, 1, mem.FlagExec, b.Tag); err != nil { // code page of B
		t.Fatal(err)
	}
	if err := s.Grant(a.Tag, b.Tag, PermWrite); err != nil {
		t.Fatal(err)
	}
	ctx := ctxAt(0, 0)
	if err := s.CheckCall(ctx, pt, 2*mem.PageSize+8); err != nil {
		t.Fatalf("call into B's code should pass: %v", err)
	}
	// An APL write grant cannot override the page's missing exec bit
	// (§4.1).
	if err := s.CheckCall(ctx, pt, mem.PageSize); err == nil {
		t.Fatal("call into a non-executable page allowed by APL grant")
	}
}

func TestAccessSpanningDomainsFaults(t *testing.T) {
	s, pt, a, _, _ := fig4(t)
	ctx := ctxAt(1, 0)
	// The last bytes of page 4 (A) are A's own...
	end4 := mem.Addr(5 * mem.PageSize)
	if _, err := s.NewFromAPL(ctx, pt, a.Tag, end4-16, 16, PermRead); err != nil {
		t.Fatalf("capability over the end of A's page 4: %v", err)
	}
	// ...but a range that runs on into page 5 (C) spans two domains.
	if _, err := s.NewFromAPL(ctx, pt, a.Tag, end4-4, 16, PermRead); err == nil {
		t.Fatal("capability spanning two domains must be refused")
	}
}

func TestGrantRevoke(t *testing.T) {
	s, pt, a, b, _ := fig4(t)
	ctx := ctxAt(1, 0)
	if err := s.Grant(a.Tag, b.Tag, PermWrite); err != nil {
		t.Fatal(err)
	}
	if got := s.APLPerm(a.Tag, b.Tag); got != PermWrite {
		t.Fatalf("A holds %v over B after the upgrade, want write", got)
	}
	if _, err := s.NewFromAPL(ctx, pt, b.Tag, 3*mem.PageSize, 4, PermWrite); err != nil {
		t.Fatalf("write capability after grant upgrade: %v", err)
	}
	if err := s.Grant(a.Tag, b.Tag, PermNil); err != nil { // grant_revoke
		t.Fatal(err)
	}
	if got := s.APLPerm(a.Tag, b.Tag); got != PermNil {
		t.Fatalf("A holds %v over B after revoke, want nil", got)
	}
	if _, err := s.NewFromAPL(ctx, pt, b.Tag, 3*mem.PageSize, 4, PermRead); err == nil {
		t.Fatal("read capability after revoke")
	}
	if err := s.CheckCall(ctx, pt, 3*mem.PageSize); err == nil {
		t.Fatal("call after revoke")
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
	s, pt, _, _, c := fig4(t)
	ctx := ctxAt(3, 0) // executing in B, which has read over C
	cap, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 64, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if !cap.Covers(5*mem.PageSize+32, 8, PermRead) {
		t.Fatal("capability does not cover its own range")
	}
	// Cannot mint more authority than the APL holds.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 64, PermWrite); err == nil {
		t.Fatal("minted write capability from read grant")
	}
	// Cannot mint over pages of a different domain.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 1*mem.PageSize, 64, PermRead); err == nil {
		t.Fatal("minted capability over foreign pages")
	}
	// Unmapped pages are rejected.
	if _, err := s.NewFromAPL(ctx, pt, c.Tag, 100*mem.PageSize, 64, PermRead); err == nil {
		t.Fatal("minted capability over unmapped pages")
	}
}

func TestCapabilityAuthorizesAccess(t *testing.T) {
	s, pt, _, _, c := fig4(t)
	// A thread executing in B mints capabilities over part of C, then
	// moves on into A's code, which holds no grant over C: from there
	// only its capability registers authorize calls into C.
	ctx := ctxAt(3, 0)
	read, err := s.NewFromAPL(ctx, pt, c.Tag, 5*mem.PageSize, 256, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	call, err := s.NewFromAPL(ctx, pt, c.Tag, 6*mem.PageSize, 256, PermCall)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetIP(1 * mem.PageSize)
	if err := s.CheckCall(ctx, pt, 5*mem.PageSize+8); err == nil {
		t.Fatal("A called into C with no grant and no capability")
	}
	ctx.CapRegs[2] = read
	ctx.CapRegs[3] = call
	// A read capability authorizes any target inside its bounds.
	if err := s.CheckCall(ctx, pt, 5*mem.PageSize+8); err != nil {
		t.Fatalf("capability-authorized call failed: %v", err)
	}
	// Out of capability bounds fails.
	if err := s.CheckCall(ctx, pt, 5*mem.PageSize+300); err == nil {
		t.Fatal("call beyond capability bounds allowed")
	}
	// A call capability authorizes aligned entry points only.
	if err := s.CheckCall(ctx, pt, 6*mem.PageSize+s.EntryAlign); err != nil {
		t.Fatalf("call capability denied an aligned entry: %v", err)
	}
	if err := s.CheckCall(ctx, pt, 6*mem.PageSize+8); err == nil {
		t.Fatal("call capability allowed an unaligned target")
	}
}

func TestSyncCapabilityIsThreadPrivate(t *testing.T) {
	s, pt, _, _, c := fig4(t)
	bctx := ctxAt(3, 0)
	cap, err := s.NewFromAPL(bctx, pt, c.Tag, 5*mem.PageSize, 64, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	other := ctxAt(1, 0)
	other.CapRegs[0] = cap
	if cap.ValidFor(other) {
		t.Fatal("capability valid on a foreign thread")
	}
	if err := s.CheckCall(other, pt, 5*mem.PageSize+8); err == nil {
		t.Fatal("synchronous capability honoured on a foreign thread")
	}
	// It does work on its owner.
	bctx.CapRegs[0] = cap
	bctx.SetIP(1 * mem.PageSize) // even from other code (owner thread is what counts)
	if !cap.ValidFor(bctx) {
		t.Fatal("capability invalid on its owner")
	}
	if err := s.CheckCall(bctx, pt, 5*mem.PageSize+8); err != nil {
		t.Fatalf("owner thread denied: %v", err)
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

func TestAPLCacheInsertLookup(t *testing.T) {
	c := &APLCache{}
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
	if _, ok := c.Lookup(Tag(99)); ok {
		t.Fatal("Lookup of a domain never inserted must miss")
	}
}

func TestAPLCacheEviction(t *testing.T) {
	c := &APLCache{}
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
