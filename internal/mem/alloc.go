package mem

import "fmt"

// GlobalSpace is the global virtual-address-space allocator from §6.1.3:
// dIPC-enabled processes first allocate a whole block of virtual memory
// (1 GB in the paper's prototype) from a shared allocator, and then
// sub-allocate from their blocks locally. The two-phase split keeps the
// (contended) global step rare.
type GlobalSpace struct {
	blockSize Addr
	next      Addr
	limit     Addr
}

// DefaultBlockSize is the paper's 1 GB global allocation unit.
const DefaultBlockSize Addr = 1 << 30

// NewGlobalSpace returns an allocator handing out blockSize-aligned
// blocks from [base, base+size).
func NewGlobalSpace(base, size Addr, blockSize Addr) *GlobalSpace {
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	return &GlobalSpace{
		blockSize: blockSize,
		next:      PageAlign(base),
		limit:     base + size,
	}
}

// AllocBlock reserves one block and returns its base address. Blocks
// are handed out in increasing address order.
func (g *GlobalSpace) AllocBlock() (Addr, error) {
	if g.next+g.blockSize > g.limit {
		return 0, fmt.Errorf("mem: global virtual address space exhausted")
	}
	b := g.next
	g.next += g.blockSize
	return b, nil
}

// Suballoc is the per-process second phase: a bump allocator over blocks
// obtained from a GlobalSpace.
type Suballoc struct {
	g    *GlobalSpace
	cur  Addr
	left Addr
}

// NewSuballoc returns a sub-allocator backed by g.
func NewSuballoc(g *GlobalSpace) *Suballoc {
	return &Suballoc{g: g}
}

// Alloc reserves size bytes (page-aligned) of virtual address space and
// returns the base. It pulls a fresh global block when the current one is
// exhausted; allocations larger than a block span consecutive dedicated
// blocks.
func (s *Suballoc) Alloc(size int) (Addr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("mem: alloc of non-positive size %d", size)
	}
	need := Addr(PagesIn(size) * PageSize)
	if need > s.g.blockSize {
		// Large allocation: take enough dedicated blocks. The global
		// allocator hands them out in increasing address order, so
		// consecutive blocks are contiguous.
		nblocks := int((need + s.g.blockSize - 1) / s.g.blockSize)
		base, err := s.g.AllocBlock()
		if err != nil {
			return 0, err
		}
		for i := 1; i < nblocks; i++ {
			if _, err := s.g.AllocBlock(); err != nil {
				return 0, err
			}
		}
		return base, nil
	}
	if need > s.left {
		b, err := s.g.AllocBlock()
		if err != nil {
			return 0, err
		}
		s.cur = b
		s.left = s.g.blockSize
	}
	base := s.cur
	s.cur += need
	s.left -= need
	return base, nil
}
