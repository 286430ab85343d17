package mem

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestMapLookup(t *testing.T) {
	pt := NewPageTable()
	va := Addr(0x40000000)
	if err := pt.Map(va, 4, FlagExec|FlagPrivCap, Tag(7)); err != nil {
		t.Fatal(err)
	}
	pi, ok := pt.Lookup(va + 3*PageSize)
	if !ok || pi.Tag != 7 || !pi.Flags.Has(FlagExec|FlagPrivCap) {
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
	if pt.Gen() != 0 || len(pt.runs) != 0 {
		t.Fatalf("failed map changed the table: gen %d, %d runs", pt.Gen(), len(pt.runs))
	}
}

// TestMapRejectsDoubleMap maps over mapped pages: from below, from
// inside and over a whole run. Each Map must fail naming the first page
// already mapped and leave the table exactly as it was.
func TestMapRejectsDoubleMap(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x10000, 4, FlagExec, Tag(3)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		va    Addr
		n     int
		first Addr
	}{
		{0x10000, 1, 0x10000},
		{0xe000, 3, 0x10000},
		{0x12000, 8, 0x12000},
		{0xf000, 6, 0x10000},
	} {
		gen, frames, runs := pt.Gen(), pt.nextFrame, slices.Clone(pt.runs)
		err := pt.Map(tc.va, tc.n, 0, NilTag)
		want := fmt.Sprintf("mem: page %#x already mapped", uint64(tc.first))
		if err == nil || err.Error() != want {
			t.Errorf("Map(%#x, %d) = %v, want %q", uint64(tc.va), tc.n, err, want)
		}
		if pt.Gen() != gen || pt.nextFrame != frames || !slices.Equal(pt.runs, runs) {
			t.Errorf("Map(%#x, %d) changed the table", uint64(tc.va), tc.n)
		}
		if _, ok := pt.Lookup(tc.va); ok != (tc.va == tc.first) {
			t.Errorf("Map(%#x, %d) mapped its first page", uint64(tc.va), tc.n)
		}
	}
}

// TestMapAdjacentRuns maps runs that touch on both sides, out of address
// order. Every page translates with its own run's tag and flags.
func TestMapAdjacentRuns(t *testing.T) {
	pt := NewPageTable()
	for _, m := range []struct {
		va  Addr
		n   int
		tag Tag
	}{{0x5000, 2, 2}, {0x3000, 2, 1}, {0x7000, 1, 3}} {
		if err := pt.Map(m.va, m.n, FlagExec, m.tag); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []Tag{1, 1, 2, 2, 3} {
		pi, ok := pt.Lookup(0x3000 + Addr(i)*PageSize)
		if !ok || pi.Tag != want || pi.Flags != FlagExec|FlagPresent {
			t.Errorf("page %d = %+v, %v; want tag %d", i, pi, ok, want)
		}
	}
}

// TestLookupRunEdgesAndHoles reads the first and last byte of each run
// and the pages in the holes around them.
func TestLookupRunEdgesAndHoles(t *testing.T) {
	pt := NewPageTable()
	if err := pt.Map(0x4000, 2, 0, Tag(1)); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x9000, 3, 0, Tag(2)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		va  Addr
		tag Tag // NilTag: unmapped
	}{
		{0, NilTag}, {0x3fff, NilTag}, {0x4000, 1}, {0x5fff, 1},
		{0x6000, NilTag}, {0x8fff, NilTag}, {0x9000, 2}, {0xbfff, 2},
		{0xc000, NilTag}, {^Addr(0), NilTag},
	} {
		pi, ok := pt.Lookup(c.va)
		if ok != (c.tag != NilTag) || pi.Tag != c.tag || (!ok && pi != PageInfo{}) {
			t.Errorf("Lookup(%#x) = %+v, %v; want tag %d", uint64(c.va), pi, ok, c.tag)
		}
	}
}

// TestGenCountsPages checks that Gen rises by one per mapped page and
// not at all on a failed or empty Map.
func TestGenCountsPages(t *testing.T) {
	pt := NewPageTable()
	for _, m := range []struct {
		va      Addr
		n       int
		wantGen uint64
	}{
		{0x1000, 3, 3}, {0x8000, 1, 4}, {0x2000, 2, 4}, {0x9000, 0, 4}, {0x20000, 5, 9},
	} {
		pt.Map(m.va, m.n, 0, NilTag)
		if pt.Gen() != m.wantGen {
			t.Fatalf("after Map(%#x, %d): Gen = %d, want %d", uint64(m.va), m.n, pt.Gen(), m.wantGen)
		}
	}
}

// TestDistinctFramesPerPage checks that a table numbers its frames 1, 2,
// ... in the order pages are mapped, whatever their addresses, and that
// every table numbers its own.
func TestDistinctFramesPerPage(t *testing.T) {
	for k := 0; k < 2; k++ {
		pt := NewPageTable()
		if err := pt.Map(0x9000, 3, 0, NilTag); err != nil {
			t.Fatal(err)
		}
		if err := pt.Map(0x1000, 2, 0, NilTag); err != nil {
			t.Fatal(err)
		}
		for i, va := range []Addr{0x9000, 0xa000, 0xb000, 0x1000, 0x2000} {
			if pi, _ := pt.Lookup(va + 5); pi.Frame != uint64(i+1) {
				t.Errorf("frame of %#x = %d, want %d", uint64(va), pi.Frame, i+1)
			}
		}
	}
}

func TestLookupRoundTripProperty(t *testing.T) {
	pt := NewPageTable()
	f := func(page uint32, tagRaw uint16) bool {
		va := Addr(page%1000000) * PageSize
		tag := Tag(tagRaw)
		if pi, ok := pt.Lookup(va); ok {
			return pi.Flags.Has(FlagPresent)
		}
		if err := pt.Map(va, 1, FlagExec, tag); err != nil {
			return false
		}
		pi, ok := pt.Lookup(va)
		return ok && pi.Tag == tag && pi.Flags.Has(FlagPresent)
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

// TestMapAcrossNodeBoundaries maps runs of pages that straddle the node
// boundaries of an x86-64 4-level table: a leaf node (pages 511/512), a
// 1 GiB level-2 node and a 512 GiB level-3 node. Every page must read
// back its flags, tag and frame, the unmapped neighbours must read
// absent, and mapping a page twice must still fail.
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
			flags, tag := FlagExec|FlagPrivCap, Tag(9)
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
