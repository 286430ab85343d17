// Package core implements dIPC — direct inter-process communication —
// the primary contribution of the paper. It lets a thread in one process
// call a function exported by another process as a plain synchronous
// function call, with no kernel involvement on the fast path: memory
// isolation is delegated to the CODOMs architecture model, and a
// run-time-generated trusted proxy bridges the call (Fig. 3).
//
// The package exposes the Table-2 object API:
//
//   - isolation domains   (DomDefault, DomCreate)
//   - domain grants       (GrantCreate)
//   - entry points        (EntryRegister, EntryRequest)
//
// plus the runtime machinery behind them: proxy template specialization
// (§6.1.1), the process-tracking hot/warm/cold paths (§6.1.2), the kernel
// control stack (§5.2.1) and the global virtual address space (§6.1.3).
// Crash recovery (§5.2.1) is not modeled: a call into a killed process
// fails up front, and calls already inside it finish.
package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Runtime is one dIPC instance: a global virtual address space with a
// shared page table, hosting any number of dIPC-enabled processes.
type Runtime struct {
	M  *kernel.Machine
	PT *mem.PageTable

	templates map[templateKey]*ProxyTemplate
	registry  map[string]*EntryHandle // named-socket entry resolution
	proxyVA   *mem.Suballoc
	codeBases map[*kernel.Process]mem.Addr

	// FoldStubs folds the caller/callee isolation stubs into the proxy
	// assuming worst-case register liveness, matching the paper's
	// macro-benchmark configuration, which lacked compiler backend
	// support (§7.4). Left false, the caller and callee stubs are
	// separate and sized to the entry's signature.
	FoldStubs bool

	// WorstCaseLiveRegs is the register count assumed live when stubs
	// are folded ("all non-volatile registers are considered live").
	WorstCaseLiveRegs int
}

// NewRuntime creates a dIPC runtime on machine m with a fresh shared
// page table.
func NewRuntime(m *kernel.Machine) *Runtime {
	rt := &Runtime{
		M:                 m,
		PT:                mem.NewPageTable(),
		templates:         make(map[templateKey]*ProxyTemplate),
		registry:          make(map[string]*EntryHandle),
		WorstCaseLiveRegs: 14,
	}
	rt.proxyVA = mem.NewSuballoc(m.Global)
	return rt
}

// NewProcess creates a dIPC-enabled process inside this runtime's global
// virtual address space.
func (rt *Runtime) NewProcess(name string) *kernel.Process {
	return rt.M.NewDIPCProcess(name, rt.PT)
}

// EnterProcessCode places the thread's instruction pointer on a code
// page belonging to the calling process's default domain, modeling the
// application code the thread executes. Each thread must do this once
// before issuing dIPC calls — the CODOMs checks take the subject domain
// from the instruction pointer's page tag.
func (rt *Runtime) EnterProcessCode(t *kernel.Thread) (mem.Addr, error) {
	proc := t.Process()
	if base, ok := rt.codeBases[proc]; ok {
		t.HW.SetIP(base)
		return base, nil
	}
	if proc.VA == nil {
		return 0, fmt.Errorf("dipc: process %s is not dIPC-enabled", proc.Name)
	}
	base, err := rt.mapCodePages(proc.VA, 1, proc.DefaultTag, false)
	if err != nil {
		return 0, err
	}
	if rt.codeBases == nil {
		rt.codeBases = make(map[*kernel.Process]mem.Addr)
	}
	rt.codeBases[proc] = base
	t.HW.SetIP(base)
	return base, nil
}

// errBadPerm builds the permission-failure error used across the API.
func errBadPerm(op string, need, have Perm) error {
	return fmt.Errorf("dipc: %s requires %v permission, handle has %v", op, need, have)
}

// mapCodePages maps n executable pages for domain tag out of the given
// process's share of the global VA space, optionally privileged (proxy
// code carries the privileged capability bit).
func (rt *Runtime) mapCodePages(va *mem.Suballoc, npages int, tag codoms.Tag, privileged bool) (mem.Addr, error) {
	base, err := va.Alloc(npages * mem.PageSize)
	if err != nil {
		return 0, err
	}
	flags := mem.FlagExec
	if privileged {
		flags |= mem.FlagPrivCap
	}
	if err := rt.PT.Map(base, npages, flags, tag); err != nil {
		return 0, err
	}
	return base, nil
}
