package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Perm is a dIPC domain-handle permission: the ordered set
// {owner > write > read > call > nil} of Table 2. owner exists only in
// software and additionally allows managing the domain's APL.
type Perm int

// Handle permissions, ascending.
const (
	PermNil Perm = iota
	PermCall
	PermRead
	PermWrite
	PermOwner
)

// String names the permission.
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
	case PermOwner:
		return "owner"
	default:
		return fmt.Sprintf("Perm(%d)", int(p))
	}
}

// arch translates a handle permission into the CODOMs APL permission it
// grants: owner maps to write (§5.2.2).
func (p Perm) arch() codoms.Perm {
	switch p {
	case PermCall:
		return codoms.PermCall
	case PermRead:
		return codoms.PermRead
	case PermWrite, PermOwner:
		return codoms.PermWrite
	default:
		return codoms.PermNil
	}
}

// DomainHandle is a capability-like reference to an isolation domain.
// Handles are plain values: DomCopy produces downgraded copies that
// processes pass to each other.
type DomainHandle struct {
	rt   *Runtime
	tag  codoms.Tag
	perm Perm
}

// Tag returns the underlying CODOMs tag.
func (h DomainHandle) Tag() codoms.Tag { return h.tag }

// Valid reports whether the handle references a domain.
func (h DomainHandle) Valid() bool { return h.rt != nil && h.tag != mem.NilTag }

// DomDefault returns a handle with owner permission to the calling
// process's default domain.
func (rt *Runtime) DomDefault(t *kernel.Thread) DomainHandle {
	var h DomainHandle
	t.Syscall(func() {
		t.Exec(t.Machine().P.FutexWake/2, stats.BlockKernel) // trivial kernel path
		h = DomainHandle{rt: rt, tag: t.Process().DefaultTag, perm: PermOwner}
	})
	return h
}

// DomCreate allocates a fresh, fully isolated domain (it appears in no
// APL until granted; security property P1) and returns an owner handle.
func (rt *Runtime) DomCreate(t *kernel.Thread) DomainHandle {
	var h DomainHandle
	t.Syscall(func() {
		t.Exec(t.Machine().P.FutexWake, stats.BlockKernel) // tag allocation
		d := rt.M.Arch.NewDomain()
		h = DomainHandle{rt: rt, tag: d.Tag, perm: PermOwner}
	})
	return h
}

// DomCopy returns a copy of the handle downgraded to perm. It fails when
// trying to upgrade (Table 2: permp ≤ domsrc.perm).
func (rt *Runtime) DomCopy(t *kernel.Thread, src DomainHandle, perm Perm) (DomainHandle, error) {
	if perm > src.perm {
		return DomainHandle{}, errBadPerm("dom_copy upgrade", perm, src.perm)
	}
	return DomainHandle{rt: rt, tag: src.tag, perm: perm}, nil
}

// DomMmap allocates size bytes of memory tagged with the handle's domain
// out of the calling process's share of the global address space. It
// requires owner permission.
func (rt *Runtime) DomMmap(t *kernel.Thread, h DomainHandle, size int, flags mem.PageFlags) (mem.Addr, error) {
	if h.perm != PermOwner {
		return 0, errBadPerm("dom_mmap", PermOwner, h.perm)
	}
	proc := t.Process()
	if proc.VA == nil {
		return 0, fmt.Errorf("dipc: process %s is not dIPC-enabled", proc.Name)
	}
	var base mem.Addr
	var err error
	t.Syscall(func() {
		// Global block allocation is the contended phase (§7.4 lists
		// it among the measured inefficiencies); sub-allocation and
		// page mapping are the bulk of the kernel time.
		npages := mem.PagesIn(size)
		t.Exec(t.Machine().P.FutexWake+t.Machine().P.CacheLineTouch*sim.Time(npages), stats.BlockKernel)
		base, err = proc.VA.Alloc(size)
		if err != nil {
			return
		}
		err = rt.PT.Map(base, npages, flags, h.tag)
	})
	return base, err
}
