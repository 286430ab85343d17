package mem

import (
	"testing"
	"testing/quick"
)

func TestMapLookup(t *testing.T) {
	pt := NewPageTable()
	va := Addr(0x40000000)
	if err := pt.Map(va, 4, FlagWrite|FlagExec, Tag(7)); err != nil {
		t.Fatal(err)
	}
	pi, ok := pt.Lookup(va + 3*PageSize)
	if !ok || pi.Tag != 7 || !pi.Flags.Has(FlagWrite) {
		t.Fatalf("Lookup = %+v, %v", pi, ok)
	}
	if _, ok := pt.Lookup(va + 4*PageSize); ok {
		t.Fatal("page beyond mapping should not translate")
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

func TestGlobalSpaceExhaustion(t *testing.T) {
	g := NewGlobalSpace(1<<30, 2<<30, 1<<30)
	a, err := g.AllocBlock()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.AllocBlock()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("blocks collide")
	}
	if _, err := g.AllocBlock(); err == nil {
		t.Fatal("exhausted space must fail")
	}
}

func TestSuballoc(t *testing.T) {
	g := NewGlobalSpace(1<<30, 64<<30, 1<<30)
	s := NewSuballoc(g)
	blocks := func() Addr { return (g.next - 1<<30) / g.blockSize }
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
	if blocks() != 1 {
		t.Fatalf("blocks = %d, want 1 (both fit in one)", blocks())
	}
	// A >1 GB allocation takes dedicated contiguous blocks.
	big, err := s.Alloc(int(3 << 30))
	if err != nil {
		t.Fatal(err)
	}
	if big%(1<<30) != 0 {
		t.Fatal("large allocation should be block aligned")
	}
	if blocks() != 4 {
		t.Fatalf("blocks = %d, want 4", blocks())
	}
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("zero-size alloc must fail")
	}
}

// TestMapAcrossNodeBoundaries maps runs of pages that straddle a leaf
// node (pages 511/512), a 1 GiB level-2 node and a 512 GiB level-3 node.
// Every page must read back its flags, tag and frame, the unmapped
// neighbours must read absent, and mapping a page twice must still fail.
func TestMapAcrossNodeBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		boundary Addr
	}{
		{"leaf", 512 * PageSize},
		{"1GiB", 1 << 30},
		{"512GiB", 1 << 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt := NewPageTable()
			const n = 4
			va := tc.boundary - 2*PageSize
			flags, tag := FlagWrite|FlagCapStore, Tag(9)
			if err := pt.Map(va, n, flags, tag); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				pi, ok := pt.Lookup(va + Addr(i)*PageSize + 123)
				want := PageInfo{Flags: flags | FlagPresent, Tag: tag, Frame: uint64(i + 1)}
				if !ok || pi != want {
					t.Errorf("page %d = %+v, %v; want %+v", i, pi, ok, want)
				}
			}
			for _, a := range []Addr{va - PageSize, va + n*PageSize} {
				if pi, ok := pt.Lookup(a); ok || pi != (PageInfo{}) {
					t.Errorf("unmapped neighbour %#x = %+v, %v", uint64(a), pi, ok)
				}
			}
			if err := pt.Map(tc.boundary, 1, 0, NilTag); err == nil {
				t.Error("double map across the boundary must fail")
			}
		})
	}
}
