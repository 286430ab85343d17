// Package codoms is a functional model of the control side of the
// CODOMs architecture (Vilanova et al., ISCA 2014) with the
// dIPC-specific extensions from §4.3 of the dIPC paper.
//
// CODOMs subdivides a single page table into multiple protection domains:
// every page carries a domain tag, every domain has an Access Protection
// List (APL) describing which other domains its code may call, read or
// write, and access control is *code-centric* — the subject of a check is
// the domain of the currently executing instruction, not the current OS
// process. Transient sharing happens through unforgeable capabilities
// held in 8 per-thread capability registers.
//
// The model checks what dIPC's proxied calls run: control transfers
// (CheckCall, CallCached), privileged instructions (CheckPriv), the
// thread-private capabilities a proxy mints from its APL, and the APL
// cache. Data accesses are not checked, and the per-thread capability
// stack (DCS) and asynchronous, revocable capabilities are not modeled;
// the layers above charge their costs. Timing is handled by those layers
// too (the paper itself shows the hardware cost of a domain crossing is
// negligible).
package codoms

import (
	"fmt"

	"repro/internal/mem"
)

// Tag identifies a protection domain; it is the same value stored in the
// per-page tag bits of the page table.
type Tag = mem.Tag

// Perm is the permission one domain holds over another through an APL
// entry or a capability. Permissions form an ordered set (§5.2):
// nil < call < read < write.
type Perm int

const (
	// PermNil grants nothing.
	PermNil Perm = iota
	// PermCall allows calling the public (aligned) entry points of the
	// target domain.
	PermCall
	// PermRead allows reading the target domain and jumping/calling to
	// arbitrary addresses in it.
	PermRead
	// PermWrite is read plus stores.
	PermWrite
)

// String returns the paper's name for the permission.
func (p Perm) String() string {
	switch p {
	case PermNil:
		return "nil"
	case PermCall:
		return "call"
	case PermRead:
		return "read"
	case PermWrite:
		return "write"
	default:
		return fmt.Sprintf("Perm(%d)", int(p))
	}
}

// Domain is one protection domain: a tag plus its APL.
type Domain struct {
	Tag Tag
	// apl maps a target domain tag to the permission this domain's
	// code holds over it. A domain always has implicit write access to
	// itself (its own tag never appears in the APL).
	apl map[Tag]Perm
}

// System models the per-address-space CODOMs configuration: the set of
// domains and their APLs. Hardware state that is per-thread lives in
// ThreadCtx instead.
type System struct {
	domains map[Tag]*Domain
	nextTag Tag
	// EntryAlign is the system-configurable alignment that makes a code
	// address a valid entry point for call-permission crossings (§4.1).
	EntryAlign mem.Addr
	// epoch is bumped on every APL edit; precompiled call verdicts and
	// cached capabilities key on it (see Epoch).
	epoch uint64
}

// Epoch returns the APL mutation generation: it changes whenever any
// domain's APL changes (grant or revocation). dIPC's precompiled call
// descriptors and cached return capabilities key on it, so revoking a
// grant invalidates every ahead-of-time verdict that may have depended
// on it without a broadcast.
func (s *System) Epoch() uint64 { return s.epoch }

// NewSystem returns an empty CODOMs configuration.
func NewSystem() *System {
	return &System{
		domains:    make(map[Tag]*Domain),
		EntryAlign: 64,
	}
}

// NewDomain allocates a fresh domain tag with an empty APL.
func (s *System) NewDomain() *Domain {
	s.nextTag++
	d := &Domain{Tag: s.nextTag, apl: make(map[Tag]Perm)}
	s.domains[d.Tag] = d
	return d
}

// Grant sets src's APL entry for dst to perm (overwriting any previous
// grant); PermNil clears the entry. This is the privileged operation
// dIPC's grant_create wraps.
func (s *System) Grant(src, dst Tag, perm Perm) error {
	d, ok := s.domains[src]
	if !ok {
		return fmt.Errorf("codoms: grant from unknown domain %d", src)
	}
	if _, ok := s.domains[dst]; !ok {
		return fmt.Errorf("codoms: grant to unknown domain %d", dst)
	}
	s.epoch++
	if perm == PermNil {
		delete(d.apl, dst)
		return nil
	}
	d.apl[dst] = perm
	return nil
}

// APLPerm returns the permission src holds over dst via its APL. A
// domain implicitly holds write permission over itself.
func (s *System) APLPerm(src, dst Tag) Perm {
	if src == dst {
		return PermWrite
	}
	d, ok := s.domains[src]
	if !ok {
		return PermNil
	}
	return d.apl[dst]
}
