package mem

import (
	"testing"
	"testing/quick"
)

func TestMapLookupUnmap(t *testing.T) {
	pt := NewPageTable()
	va := Addr(0x40000000)
	if err := pt.Map(va, 4, FlagWrite|FlagExec, Tag(7)); err != nil {
		t.Fatal(err)
	}
	if pt.Mapped() != 4 {
		t.Fatalf("Mapped = %d, want 4", pt.Mapped())
	}
	pi, ok := pt.Lookup(va + 3*PageSize)
	if !ok || pi.Tag != 7 || !pi.Flags.Has(FlagWrite) {
		t.Fatalf("Lookup = %+v, %v", pi, ok)
	}
	if _, ok := pt.Lookup(va + 4*PageSize); ok {
		t.Fatal("page beyond mapping should not translate")
	}
	pt.Unmap(va, 4)
	if pt.Mapped() != 0 {
		t.Fatalf("Mapped after unmap = %d", pt.Mapped())
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("unmapped page still translates")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(Addr(123), 1, 0, NilTag); err == nil {
		t.Fatal("unaligned map must fail")
	}
}

func TestMapRejectsDoubleMap(t *testing.T) {
	pt := NewPageTable()
	va := Addr(0x1000)
	if err := pt.Map(va, 1, 0, NilTag); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(va, 1, 0, NilTag); err == nil {
		t.Fatal("double map must fail")
	}
}

func TestDistinctFramesPerPage(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1000, 8, 0, NilTag); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		pi, _ := pt.Lookup(Addr(0x1000 + i*PageSize))
		if seen[pi.Frame] {
			t.Fatalf("frame %d reused", pi.Frame)
		}
		seen[pi.Frame] = true
	}
}

func TestMapSharedAliasesFrames(t *testing.T) {
	src := NewPageTable()
	if err := src.Map(0x10000, 2, FlagExec, Tag(1)); err != nil {
		t.Fatal(err)
	}
	dst := NewPageTable()
	if err := dst.MapShared(0x20000, 2, FlagExec, Tag(2), src, 0x10000); err != nil {
		t.Fatal(err)
	}
	spi, _ := src.Lookup(0x10000)
	dpi, _ := dst.Lookup(0x20000)
	if spi.Frame != dpi.Frame {
		t.Fatalf("shared mapping frames differ: %d vs %d", spi.Frame, dpi.Frame)
	}
	if dpi.Tag != 2 {
		t.Fatalf("shared mapping tag = %d, want 2 (virtual copy keeps its own domain)", dpi.Tag)
	}
	if err := dst.MapShared(0x30000, 1, 0, NilTag, src, 0x90000); err == nil {
		t.Fatal("MapShared from unmapped source must fail")
	}
}

func TestRetag(t *testing.T) {
	pt := NewPageTable()
	va := Addr(0x5000)
	if err := pt.Map(va, 3, FlagWrite, Tag(1)); err != nil {
		t.Fatal(err)
	}
	if err := pt.Retag(va, 3, Tag(1), Tag(9)); err != nil {
		t.Fatal(err)
	}
	pi, _ := pt.Lookup(va + 2*PageSize)
	if pi.Tag != 9 {
		t.Fatalf("tag = %d, want 9", pi.Tag)
	}
	// Mismatched expectation must fail atomically.
	if err := pt.Retag(va, 3, Tag(1), Tag(5)); err == nil {
		t.Fatal("retag with stale expected tag must fail")
	}
	pi, _ = pt.Lookup(va)
	if pi.Tag != 9 {
		t.Fatal("failed retag must not modify pages")
	}
	if err := pt.Retag(va+16*PageSize, 1, Tag(9), Tag(5)); err == nil {
		t.Fatal("retag of unmapped page must fail")
	}
}

func TestRetagPartialOverlapAtomic(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1000, 2, 0, Tag(3)); err != nil {
		t.Fatal(err)
	}
	// Third page unmapped: whole retag must fail and leave tags alone.
	if err := pt.Retag(0x1000, 3, Tag(3), Tag(4)); err == nil {
		t.Fatal("retag spanning unmapped page must fail")
	}
	pi, _ := pt.Lookup(0x1000)
	if pi.Tag != 3 {
		t.Fatal("atomicity violated")
	}
}

func TestSetFlags(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x2000, 1, FlagWrite, Tag(1)); err != nil {
		t.Fatal(err)
	}
	if err := pt.SetFlags(0x2000, 1, FlagExec|FlagPrivCap); err != nil {
		t.Fatal(err)
	}
	pi, _ := pt.Lookup(0x2000)
	if pi.Flags.Has(FlagWrite) || !pi.Flags.Has(FlagPrivCap) {
		t.Fatalf("flags = %b", pi.Flags)
	}
	if pi.Tag != 1 {
		t.Fatal("SetFlags must preserve the tag")
	}
	if err := pt.SetFlags(0x9000, 1, 0); err == nil {
		t.Fatal("SetFlags on unmapped page must fail")
	}
}

func TestWalkDepth(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x1000, 1, 0, NilTag); err != nil {
		t.Fatal(err)
	}
	if d := pt.WalkDepth(0x1000); d != numLevels {
		t.Fatalf("mapped walk depth = %d, want %d", d, numLevels)
	}
	// A far-away unmapped address aborts at level 1.
	if d := pt.WalkDepth(0x7fff00000000); d != 1 {
		t.Fatalf("unmapped walk depth = %d, want 1", d)
	}
}

func TestLookupRoundTripProperty(t *testing.T) {
	pt := NewPageTable()
	f := func(page uint32, tagRaw uint16) bool {
		va := Addr(page%1000000) * PageSize
		tag := Tag(tagRaw)
		if pi, ok := pt.Lookup(va); ok {
			return pi.Present()
		}
		if err := pt.Map(va, 1, FlagWrite, tag); err != nil {
			return false
		}
		pi, ok := pt.Lookup(va)
		return ok && pi.Tag == tag && pi.Present()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPagesInAndAlign(t *testing.T) {
	cases := []struct{ size, want int }{
		{0, 0}, {-1, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {3 * PageSize, 3},
	}
	for _, c := range cases {
		if got := PagesIn(c.size); got != c.want {
			t.Fatalf("PagesIn(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	if PageAlign(1) != PageSize || PageAlign(PageSize) != PageSize {
		t.Fatal("PageAlign broken")
	}
}

func TestGlobalSpaceAllocFree(t *testing.T) {
	g := NewGlobalSpace(1<<30, 8<<30, 1<<30)
	a, err := g.AllocBlock("web")
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AllocBlock("db")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("blocks collide")
	}
	if o, ok := g.Owner(a + 12345); !ok || o != "web" {
		t.Fatalf("owner = %q %v", o, ok)
	}
	if err := g.FreeBlock(a); err != nil {
		t.Fatal(err)
	}
	if err := g.FreeBlock(a); err == nil {
		t.Fatal("double free must fail")
	}
	c, err := g.AllocBlock("php")
	if err != nil {
		t.Fatal(err)
	}
	if c != a {
		t.Fatalf("freed block not reused: got %#x want %#x", uint64(c), uint64(a))
	}
}

func TestGlobalSpaceExhaustion(t *testing.T) {
	g := NewGlobalSpace(1<<30, 2<<30, 1<<30)
	if _, err := g.AllocBlock("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllocBlock("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllocBlock("c"); err == nil {
		t.Fatal("exhausted space must fail")
	}
}

func TestSuballoc(t *testing.T) {
	g := NewGlobalSpace(1<<30, 64<<30, 1<<30)
	s := NewSuballoc(g, "web")
	a, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc(PageSize * 3)
	if err != nil {
		t.Fatal(err)
	}
	if b != a+PageSize {
		t.Fatalf("suballoc not bump-allocating: a=%#x b=%#x", uint64(a), uint64(b))
	}
	if g.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1 (both fit in one)", g.Blocks())
	}
	// A >1 GB allocation takes dedicated contiguous blocks.
	big, err := s.Alloc(int(3 << 30))
	if err != nil {
		t.Fatal(err)
	}
	if big%(1<<30) != 0 {
		t.Fatal("large allocation should be block aligned")
	}
	if g.Blocks() != 4 {
		t.Fatalf("blocks = %d, want 4", g.Blocks())
	}
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("zero-size alloc must fail")
	}
}
