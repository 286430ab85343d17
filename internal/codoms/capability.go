package codoms

import (
	"fmt"

	"repro/internal/mem"
)

// Capability is an unforgeable grant of access to [Base, Base+Size).
// User code can only obtain one through NewFromAPL, mirroring the
// hardware rule that a capability is always derived from the current
// domain's APL. The model has only the synchronous kind of §4.2: a
// capability is private to the thread that created it.
type Capability struct {
	Base mem.Addr
	Size mem.Addr
	Perm Perm

	owner *ThreadCtx // creating thread
	valid bool
}

// ValidFor reports whether the capability can authorize accesses right
// now from thread ctx.
func (c Capability) ValidFor(ctx *ThreadCtx) bool {
	return c.valid && c.Size != 0 && c.owner == ctx
}

// Covers reports whether the capability spans [va, va+size) with at
// least perm.
func (c Capability) Covers(va mem.Addr, size int, perm Perm) bool {
	if size <= 0 {
		size = 1
	}
	end := va + mem.Addr(size)
	return c.Perm >= perm && va >= c.Base && end <= c.Base+c.Size && end > va
}

// NewFromAPL creates a capability over [base, base+size) for thread ctx,
// deriving the authority from the current code domain's APL (or implicit
// self access). Every page in the range must belong to the target domain
// tag, and the APL permission must dominate perm.
func (s *System) NewFromAPL(ctx *ThreadCtx, pt *mem.PageTable, tag Tag, base mem.Addr, size int, perm Perm) (Capability, error) {
	subject := ctx.CodeDomain(pt)
	have := s.APLPerm(subject, tag)
	if have < perm {
		return Capability{}, fmt.Errorf("codoms: domain %d holds %v over %d, cannot mint %v capability",
			subject, have, tag, perm)
	}
	if size <= 0 {
		return Capability{}, fmt.Errorf("codoms: capability of %d bytes", size)
	}
	// All covered pages must carry the target tag; otherwise the
	// capability would launder access to a third domain.
	for a := base &^ (mem.PageSize - 1); a < base+mem.Addr(size); a += mem.PageSize {
		pi, ok := pt.Lookup(a)
		if !ok {
			return Capability{}, fmt.Errorf("codoms: capability over unmapped page %#x", uint64(a))
		}
		if pi.Tag != tag {
			return Capability{}, fmt.Errorf("codoms: page %#x tagged %d, not %d", uint64(a), pi.Tag, tag)
		}
	}
	return Capability{Base: base, Size: mem.Addr(size), Perm: perm, owner: ctx, valid: true}, nil
}

// NumCapRegs is the number of per-thread capability registers (§4.2).
const NumCapRegs = 8
