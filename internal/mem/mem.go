// Package mem models the memory system underneath the simulated OS: a
// 4-level page table extended with the CODOMs per-page metadata (domain
// tag, privileged-capability bit, capability-storage bit) and the global
// virtual-address-space allocator that dIPC's shared page table relies
// on (§6.1.3 of the paper).
package mem

import "fmt"

// Addr is a simulated 64-bit virtual (or physical) address.
type Addr uint64

// Page geometry, matching x86-64 4 KB pages with a 4-level table (9 bits
// per level, 48-bit canonical addresses).
const (
	PageShift      = 12
	PageSize       = 1 << PageShift
	levelBits      = 9
	entriesPerNode = 1 << levelBits
	numLevels      = 4
	// AddrBits is the width of translatable virtual addresses.
	AddrBits = PageShift + numLevels*levelBits // 48
)

// PageFlags are the per-page protection and CODOMs metadata bits.
type PageFlags uint8

const (
	// FlagPresent marks a mapped page.
	FlagPresent PageFlags = 1 << iota
	// FlagWrite allows stores (CODOMs still honours this bit even when
	// an APL grants write access to the page's domain, §4.1).
	FlagWrite
	// FlagExec allows instruction fetch.
	FlagExec
	// FlagPrivCap is the CODOMs privileged capability bit: code pages
	// carrying it may execute privileged instructions without a mode
	// switch (§4.1).
	FlagPrivCap
	// FlagCapStore is the CODOMs capability storage bit: capabilities
	// may be stored to and loaded from this page, and ordinary stores
	// to it are forbidden so user code cannot forge capabilities (§4.2).
	FlagCapStore
)

// Has reports whether all bits in mask are set.
func (f PageFlags) Has(mask PageFlags) bool { return f&mask == mask }

// Tag is a CODOMs domain tag. Page tables associate every page with a
// tag; the tag identifies the protection domain the page belongs to.
type Tag uint32

// NilTag is the zero tag, used for unmapped/untagged pages.
const NilTag Tag = 0

// PageInfo is the leaf page-table entry: translation plus protection.
type PageInfo struct {
	Flags PageFlags
	Tag   Tag
	Frame uint64 // simulated physical frame number
}

// Present reports whether the entry maps a page.
func (pi PageInfo) Present() bool { return pi.Flags.Has(FlagPresent) }

// The radix page table's nodes have one fixed-size type per level:
// interior nodes hold only pointers to the level below, and only leaf
// (level-1) nodes hold page entries. The level-4 root is an array in the
// PageTable itself.
type (
	level1 [entriesPerNode]PageInfo
	level2 [entriesPerNode]*level1
	level3 [entriesPerNode]*level2
)

// PageTable is a simulated 4-level page table. dIPC-enabled processes
// share one PageTable; conventional processes each own one.
type PageTable struct {
	root      [entriesPerNode]*level3
	nextFrame uint64 // bump allocator for fresh physical frames
	gen       uint64 // bumped on every mutation; see Gen
}

// Gen returns the table's mutation generation: it changes whenever a
// page is mapped. Layers that precompute translation-dependent state
// (dIPC's proxy call descriptors, cached capabilities) key their caches
// on it so a new mapping invalidates them without a broadcast.
func (pt *PageTable) Gen() uint64 { return pt.gen }

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// indices decomposes a virtual address into its four level indices
// (level 4 first).
func indices(va Addr) [numLevels]int {
	var ix [numLevels]int
	shift := uint(PageShift + (numLevels-1)*levelBits)
	for l := 0; l < numLevels; l++ {
		ix[l] = int(va>>shift) & (entriesPerNode - 1)
		shift -= levelBits
	}
	return ix
}

// entry returns va's leaf entry, creating the nodes above it.
func (pt *PageTable) entry(va Addr) *PageInfo {
	ix := indices(va)
	l3 := child(&pt.root[ix[0]])
	l2 := child(&l3[ix[1]])
	l1 := child(&l2[ix[2]])
	return &l1[ix[3]]
}

// child returns the node in slot, filling an empty slot with a new one.
func child[T any](slot **T) *T {
	if *slot == nil {
		*slot = new(T)
	}
	return *slot
}

// AllocFrame returns a fresh simulated physical frame number.
func (pt *PageTable) AllocFrame() uint64 {
	pt.nextFrame++
	return pt.nextFrame
}

// Map installs n contiguous pages starting at va with the given flags and
// domain tag, allocating fresh frames. It fails if any page is already
// mapped or va is not page-aligned.
func (pt *PageTable) Map(va Addr, n int, flags PageFlags, tag Tag) error {
	if va%PageSize != 0 {
		return fmt.Errorf("mem: map at unaligned address %#x", uint64(va))
	}
	for i := 0; i < n; i++ {
		a := va + Addr(i)*PageSize
		e := pt.entry(a)
		if e.Present() {
			return fmt.Errorf("mem: page %#x already mapped", uint64(a))
		}
		*e = PageInfo{Flags: flags | FlagPresent, Tag: tag, Frame: pt.AllocFrame()}
		pt.gen++
	}
	return nil
}

// Lookup translates va, returning its page info.
func (pt *PageTable) Lookup(va Addr) (PageInfo, bool) {
	ix := indices(va)
	if l3 := pt.root[ix[0]]; l3 != nil {
		if l2 := l3[ix[1]]; l2 != nil {
			if l1 := l2[ix[2]]; l1 != nil && l1[ix[3]].Present() {
				return l1[ix[3]], true
			}
		}
	}
	return PageInfo{}, false
}

// PagesIn returns how many pages cover size bytes.
func PagesIn(size int) int {
	if size <= 0 {
		return 0
	}
	return (size + PageSize - 1) / PageSize
}

// PageAlign rounds a up to the next page boundary.
func PageAlign(a Addr) Addr {
	return (a + PageSize - 1) &^ (PageSize - 1)
}
