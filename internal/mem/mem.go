// Package mem models the memory system underneath the simulated OS: a
// page table extended with the CODOMs per-page metadata (domain tag,
// executable and privileged-capability bits) and the global
// virtual-address-space allocator that dIPC's shared page table relies
// on (§6.1.3 of the paper).
package mem

import (
	"fmt"
	"slices"
)

// Addr is a simulated 64-bit virtual (or physical) address.
type Addr uint64

// Page geometry, matching x86-64 4 KB pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// PageFlags are the per-page protection and CODOMs metadata bits.
type PageFlags uint8

const (
	// FlagPresent marks a mapped page.
	FlagPresent PageFlags = 1 << iota
	// FlagExec allows instruction fetch.
	FlagExec
	// FlagPrivCap is the CODOMs privileged capability bit: code pages
	// carrying it may execute privileged instructions without a mode
	// switch (§4.1).
	FlagPrivCap
)

// Has reports whether all bits in mask are set.
func (f PageFlags) Has(mask PageFlags) bool { return f&mask == mask }

// Tag is a CODOMs domain tag. Page tables associate every page with a
// tag; the tag identifies the protection domain the page belongs to.
type Tag uint32

// NilTag is the zero tag, used for unmapped/untagged pages.
const NilTag Tag = 0

// PageInfo is one page's translation plus protection.
type PageInfo struct {
	Flags PageFlags
	Tag   Tag
	Frame uint64 // simulated physical frame number
}

// run is one Map call's pages: pages contiguous pages from base with
// one set of flags and one tag, backed by frames frame, frame+1, ...
type run struct {
	base  Addr
	pages uint64
	flags PageFlags
	tag   Tag
	frame uint64
}

// end returns the first address past the run.
func (r *run) end() Addr { return r.base + Addr(r.pages)<<PageShift }

// cmpRun orders va against r for a binary search: 0 when r maps va.
func cmpRun(r run, va Addr) int {
	switch {
	case va < r.base:
		return 1
	case va >= r.end():
		return -1
	}
	return 0
}

// PageTable is a simulated page table: the mapped runs, sorted by
// address. dIPC-enabled processes share one PageTable; conventional
// processes each own one.
type PageTable struct {
	runs      []run
	nextFrame uint64 // last simulated physical frame handed out
	gen       uint64 // bumped once per mapped page; see Gen
}

// Gen returns the table's mutation generation: it changes whenever a
// page is mapped. Layers that precompute translation-dependent state
// (dIPC's proxy call descriptors, cached capabilities) key their caches
// on it so a new mapping invalidates them without a broadcast.
func (pt *PageTable) Gen() uint64 { return pt.gen }

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// Map installs n contiguous pages starting at va with the given flags and
// domain tag, backed by fresh frames. It fails, leaving the table
// unchanged, if va is not page-aligned or any of the pages is already
// mapped.
func (pt *PageTable) Map(va Addr, n int, flags PageFlags, tag Tag) error {
	if va%PageSize != 0 {
		return fmt.Errorf("mem: map at unaligned address %#x", uint64(va))
	}
	if n <= 0 {
		return nil
	}
	r := run{base: va, pages: uint64(n), flags: flags | FlagPresent, tag: tag, frame: pt.nextFrame + 1}
	i, found := slices.BinarySearchFunc(pt.runs, va, cmpRun)
	if !found && i < len(pt.runs) && pt.runs[i].base < r.end() {
		va, found = pt.runs[i].base, true // the first mapped page in r
	}
	if found {
		return fmt.Errorf("mem: page %#x already mapped", uint64(va))
	}
	pt.runs = slices.Insert(pt.runs, i, r)
	pt.nextFrame += r.pages
	pt.gen += r.pages
	return nil
}

// Lookup translates va, returning its page info.
//
//dipcvet:noalloc
func (pt *PageTable) Lookup(va Addr) (PageInfo, bool) {
	i, found := slices.BinarySearchFunc(pt.runs, va, cmpRun)
	if !found {
		return PageInfo{}, false
	}
	r := &pt.runs[i]
	return PageInfo{Flags: r.flags, Tag: r.tag, Frame: r.frame + uint64(va-r.base)>>PageShift}, true
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
