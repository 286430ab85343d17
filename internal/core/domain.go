package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
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
// Handles are plain values that processes pass to each other.
type DomainHandle struct {
	rt   *Runtime
	tag  codoms.Tag
	perm Perm
}

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
