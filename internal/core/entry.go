package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Signature describes an entry point's ABI: the register and stack
// footprint of its arguments and results (Table 2: "Number of
// input/output registers and stack size"). Caller and callee must agree
// exactly (security property P4).
type Signature struct {
	InRegs     int // argument registers
	OutRegs    int // result registers
	StackBytes int // in-stack argument bytes
	StackRet   int // in-stack result bytes
	CapArgs    int // capability arguments on the DCS
	CapRets    int // capability results on the DCS
	// LiveRegs is the compiler's register-liveness estimate at call
	// sites (0 means "unknown": stubs assume six live registers; folded
	// stubs assume the runtime's worst case).
	LiveRegs int
}

// matches implements the P4 signature equality check. LiveRegs is a
// compiler hint, not part of the ABI contract.
func (s Signature) matches(o Signature) bool {
	s.LiveRegs, o.LiveRegs = 0, 0
	return s == o
}

// Func is the body of an entry point: it runs on the calling thread
// after the proxy has switched domains. Simulated compute time is
// charged by the body itself.
type Func func(t *kernel.Thread, in *Args) *Args

// Args carries a call's arguments or results: register values, the
// in-stack payload size (for copy costing under stack confidentiality),
// capability arguments, and an opaque by-reference payload — dIPC passes
// arguments by reference, leaving copies to the programmer (§7.2).
type Args struct {
	Regs       []uint64
	StackBytes int
	Caps       []codoms.Capability
	Data       any
}

// EntryDesc describes one entry point being registered or requested.
type EntryDesc struct {
	Name   string
	Fn     Func // callee side only
	Sig    Signature
	Policy IsoProps
}

// entryImpl is a registered entry point: descriptor plus its address in
// the exporting domain's code pages.
type entryImpl struct {
	desc EntryDesc
	addr mem.Addr
}

// EntryHandle represents an array of public entry points of a domain
// (Table 2). It is created by the exporting process and passed to
// importers (as a file descriptor or through the name registry).
type EntryHandle struct {
	rt      *Runtime
	dom     DomainHandle
	proc    *kernel.Process
	entries []entryImpl
}

// EntryRegister exports the given entry points from the domain of h,
// which requires owner permission. Entry code is placed on executable
// pages tagged with the domain, at addresses aligned to the CODOMs entry
// alignment so that call-permission crossings can only land on them (P2).
func (rt *Runtime) EntryRegister(t *kernel.Thread, h DomainHandle, descs []EntryDesc) (*EntryHandle, error) {
	if h.perm != PermOwner {
		return nil, errBadPerm("entry_register", PermOwner, h.perm)
	}
	if len(descs) == 0 {
		return nil, fmt.Errorf("dipc: entry_register with no entries")
	}
	for i, d := range descs {
		if d.Fn == nil {
			return nil, fmt.Errorf("dipc: entry %d (%s) has no implementation", i, d.Name)
		}
	}
	proc := t.Process()
	if proc.VA == nil {
		return nil, fmt.Errorf("dipc: process %s is not dIPC-enabled", proc.Name)
	}
	var eh *EntryHandle
	var err error
	t.Syscall(func() {
		perPage := int(mem.PageSize / rt.M.Arch.EntryAlign)
		npages := (len(descs) + perPage - 1) / perPage
		t.Exec(t.Machine().P.FutexWake+t.Machine().P.CacheLineTouch*sim.Time(len(descs)), stats.BlockKernel)
		var base mem.Addr
		base, err = rt.mapCodePages(proc.VA, npages, h.tag, false)
		if err != nil {
			return
		}
		eh = &EntryHandle{rt: rt, dom: h, proc: proc}
		for i, d := range descs {
			eh.entries = append(eh.entries, entryImpl{
				desc: d,
				addr: base + mem.Addr(i)*rt.M.Arch.EntryAlign,
			})
		}
	})
	return eh, err
}

// ImportedEntry is a caller-side resolved entry point: calling it runs
// the run-time-generated proxy, which crosses into the exporting
// process and back (Fig. 3 steps 1–3).
type ImportedEntry struct {
	Name  string
	proxy *Proxy
}

// EntryRequest imports the entry points of eh into the calling process:
// for every entry it checks that the requested signature matches the
// registered one (P4), creates a specialized trusted proxy, and returns
// a call-permission handle to the fresh proxy domain plus the resolved
// entries. The caller must still GrantCreate its own domain access to
// the proxy domain before calling (P2).
//
// The effective isolation policy of each entry is the union of the
// policies requested by the two sides, resolved per §5.2.3.
func (rt *Runtime) EntryRequest(t *kernel.Thread, eh *EntryHandle, descs []EntryDesc) (DomainHandle, []*ImportedEntry, error) {
	if eh == nil || len(descs) != len(eh.entries) {
		return DomainHandle{}, nil, fmt.Errorf("dipc: entry_request count mismatch")
	}
	for i, d := range descs {
		if !d.Sig.matches(eh.entries[i].desc.Sig) {
			return DomainHandle{}, nil, fmt.Errorf(
				"dipc: entry %d (%s): signature mismatch (caller %+v, callee %+v) — P4",
				i, eh.entries[i].desc.Name, d.Sig, eh.entries[i].desc.Sig)
		}
	}
	callerProc := t.Process()
	if callerProc.VA == nil {
		return DomainHandle{}, nil, fmt.Errorf("dipc: process %s is not dIPC-enabled", callerProc.Name)
	}
	var domP DomainHandle
	var imports []*ImportedEntry
	var err error
	t.Syscall(func() {
		p := t.Machine().P
		// Create the proxy domain with access to both sides.
		pd := rt.M.Arch.NewDomain()
		if err = rt.M.Arch.Grant(pd.Tag, callerProc.DefaultTag, codoms.PermWrite); err != nil {
			return
		}
		if err = rt.M.Arch.Grant(pd.Tag, eh.dom.tag, codoms.PermWrite); err != nil {
			return
		}
		if eh.proc.DefaultTag != eh.dom.tag {
			// The callee function may live in a non-default domain of
			// its process; the proxy also needs the process's default
			// domain for stack and TLS work.
			if err = rt.M.Arch.Grant(pd.Tag, eh.proc.DefaultTag, codoms.PermWrite); err != nil {
				return
			}
		}
		// Each proxy occupies two aligned slots: entry and proxy_ret.
		perPage := int(mem.PageSize / rt.M.Arch.EntryAlign)
		npages := (2*len(descs) + perPage - 1) / perPage
		var base mem.Addr
		base, err = rt.mapCodePages(rt.proxyVA, npages, pd.Tag, true)
		if err != nil {
			return
		}
		cross := eh.proc != callerProc
		for i := range descs {
			mp := merge(descs[i].Policy, eh.entries[i].desc.Policy)
			tmpl := rt.template(eh.entries[i].desc.Sig, mp, cross)
			// Run-time specialization: copy the template into place
			// and relocate it (§6.1.1).
			t.Exec(p.Copy(tmpl.CodeBytes)+p.CacheLineTouch*sim.Time(tmpl.Relocs), stats.BlockKernel)
			px := &Proxy{
				rt:         rt,
				tmpl:       tmpl,
				entry:      eh.entries[i],
				mp:         mp,
				sig:        eh.entries[i].desc.Sig,
				domTag:     pd.Tag,
				addr:       base + mem.Addr(2*i)*rt.M.Arch.EntryAlign,
				retAddr:    base + mem.Addr(2*i+1)*rt.M.Arch.EntryAlign,
				callerProc: callerProc,
				calleeProc: eh.proc,
				cross:      cross,
			}
			px.compile()
			imports = append(imports, &ImportedEntry{Name: eh.entries[i].desc.Name, proxy: px})
		}
		domP = DomainHandle{rt: rt, tag: pd.Tag, perm: PermCall}
	})
	if err != nil {
		return DomainHandle{}, nil, err
	}
	return domP, imports, nil
}
