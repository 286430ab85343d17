package kernel

import (
	"repro/internal/codoms"
	"repro/internal/mem"
)

// Process is a simulated OS process: an address space and (for
// dIPC-enabled processes) membership in the global virtual address
// space. A thread names its current process (Thread.Process).
type Process struct {
	PID  int
	Name string

	m         *Machine
	PageTable *mem.PageTable

	// DefaultTag is the CODOMs tag of the process's default domain
	// (§5.2: "all processes get a single default domain").
	DefaultTag codoms.Tag

	// DIPC marks a dIPC-enabled process: loaded into the global virtual
	// address space on a shared page table (§6.1.3).
	DIPC bool

	// VA sub-allocates this process's share of the global address space.
	VA *mem.Suballoc

	// TLSBase is the thread-local-storage segment base; proxies switch
	// it with wrfsbase on cross-process calls (§6.1.2).
	TLSBase mem.Addr

	// WorkingSet is the cache footprint (bytes) this process's threads
	// re-populate after the CPU ran a different process — the
	// second-order pollution cost of context switching (§2.2). Zero
	// (the default) disables the charge.
	WorkingSet int

	Dead bool
}

// NewProcess creates a conventional process with a private page table
// and its own default domain.
func (m *Machine) NewProcess(name string) *Process {
	return m.newProcess(name, mem.NewPageTable())
}

// newProcess creates a process on page table pt with its own default
// domain.
func (m *Machine) newProcess(name string, pt *mem.PageTable) *Process {
	m.nextPID++
	p := &Process{PID: m.nextPID, Name: name, m: m, PageTable: pt}
	p.DefaultTag = m.Arch.NewDomain().Tag
	m.procs[p.PID] = p
	return p
}

// NewDIPCProcess creates a dIPC-enabled process: it shares the given
// page table (one per global virtual address space) and allocates its
// memory through the global block allocator. Position-independent
// executables are assumed (§6.1.3).
func (m *Machine) NewDIPCProcess(name string, shared *mem.PageTable) *Process {
	p := m.newProcess(name, shared)
	p.DIPC = true
	p.VA = mem.NewSuballoc(m.Global)
	// Reserve a page for the TLS segment.
	base, err := p.VA.Alloc(mem.PageSize)
	if err == nil {
		p.TLSBase = base
	}
	return p
}

// Kill marks the process dead. Threads currently inside it observe the
// flag at their next fault-check point; dIPC treats process kills with
// the same KCS-unwinding technique as thread crashes (§5.2.1).
func (m *Machine) Kill(p *Process) {
	p.Dead = true
	delete(m.procs, p.PID)
}

// Restart revives a killed process in place: the same address space
// and dIPC registrations come back up — the model's analogue of a
// supervisor restarting a crashed tier under the same identity. Callers
// that cached cross-domain call verdicts against the old incarnation
// must revalidate rather than trust them blindly; the descriptor tests
// in internal/core pin that contract across a Kill/Restart cycle.
func (m *Machine) Restart(p *Process) {
	if !p.Dead {
		return
	}
	p.Dead = false
	m.procs[p.PID] = p
}
