package codoms

import (
	"fmt"

	"repro/internal/mem"
)

// Fault is the error produced by a failed CODOMs check. The model
// checks only control transfers and privileged instructions, so every
// fault is an exec fault; dIPC returns it to the caller of the proxy.
type Fault struct {
	Subject Tag
	VA      mem.Addr
	Reason  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("codoms fault: domain %d exec at %#x: %s", f.Subject, uint64(f.VA), f.Reason)
}

// ThreadCtx is the per-hardware-thread CODOMs state: the instruction
// pointer (whose page tag defines the subject domain), the 8 capability
// registers and the APL cache. The zero value is a fresh context.
type ThreadCtx struct {
	ip       mem.Addr
	ipDomain Tag // cached tag of the current code page
	ipValid  bool

	CapRegs [NumCapRegs]Capability
	Cache   APLCache
}

// SetIP moves the instruction pointer, invalidating the cached subject
// domain if the page changed.
func (ctx *ThreadCtx) SetIP(va mem.Addr) {
	if ctx.ipValid && va>>mem.PageShift == ctx.ip>>mem.PageShift {
		ctx.ip = va
		return
	}
	ctx.ip = va
	ctx.ipValid = false
}

// IP returns the current instruction pointer.
func (ctx *ThreadCtx) IP() mem.Addr { return ctx.ip }

// SetIPInDomain moves the instruction pointer and primes the cached
// subject domain with a tag the caller already knows. It is the
// privileged-proxy fast path: dIPC proxies record the caller's domain
// when a call enters and reinstate it on return, skipping the page-table
// walk SetIP would otherwise force. Callers must guard the primed tag
// with the page table's generation (mem.PageTable.Gen) — priming a tag
// the table no longer carries would corrupt subsequent checks.
func (ctx *ThreadCtx) SetIPInDomain(va mem.Addr, tag Tag) {
	ctx.ip = va
	ctx.ipDomain = tag
	ctx.ipValid = true
}

// CodeDomain returns the domain of the currently executing instruction,
// the subject of every CODOMs check.
func (ctx *ThreadCtx) CodeDomain(pt *mem.PageTable) Tag {
	if ctx.ipValid {
		return ctx.ipDomain
	}
	pi, ok := pt.Lookup(ctx.ip)
	if !ok {
		return mem.NilTag
	}
	ctx.ipDomain = pi.Tag
	ctx.ipValid = true
	return pi.Tag
}

// CheckCall validates a control transfer to target: the target must be
// executable and the subject must reach it through its own domain, an APL
// entry (call permission restricted to aligned entry points, read or
// better for arbitrary addresses, §4.1) or a capability register.
func (s *System) CheckCall(ctx *ThreadCtx, pt *mem.PageTable, target mem.Addr) error {
	subject := ctx.CodeDomain(pt)
	fault := func(reason string) error {
		return &Fault{Subject: subject, VA: target, Reason: reason}
	}
	pi, ok := pt.Lookup(target)
	if !ok {
		return fault("target not mapped")
	}
	if !pi.Flags.Has(mem.FlagExec) {
		return fault("target not executable")
	}
	if pi.Tag == subject {
		return nil
	}
	perm := s.APLPerm(subject, pi.Tag)
	switch {
	case perm >= PermRead:
		return nil // read grants arbitrary call/jump targets
	case perm == PermCall:
		if target%s.EntryAlign == 0 {
			return nil
		}
		return fault("call permission requires aligned entry point")
	}
	for i := range ctx.CapRegs {
		c := ctx.CapRegs[i]
		if !c.ValidFor(ctx) {
			continue
		}
		if c.Covers(target, 1, PermRead) {
			return nil
		}
		if c.Covers(target, 1, PermCall) && target%s.EntryAlign == 0 {
			return nil
		}
	}
	return fault("no call authority over target domain")
}

// CallVerdict memoizes one successful CheckCall outcome for a fixed
// (subject domain, target address) pair. dIPC stores one per hop of a
// proxy's call sequence inside the proxy's precompiled call descriptor,
// so a steady-state cross-domain call performs no page-table walks and
// no APL probes — everything expensive was resolved the first time.
//
// The verdict is sound while nothing it depended on can have changed:
// the APLs (System.Epoch) and the page table (mem.PageTable.Gen) are
// revalidated on every use, and the subject must match the domain the
// verdict was recorded under. A success that was authorized by a
// capability register is only safely replayed if the caller
// re-establishes an equivalent capability before each use — dIPC's
// proxy does exactly that with its minted return capability, which is
// installed earlier in the same call.
type CallVerdict struct {
	subject Tag
	target  mem.Addr
	tag     Tag  // target page's domain tag
	viaCap  bool // authorized by a capability register, not self/APL
	epoch   uint64
	ptGen   uint64
	valid   bool
}

// capAuthorizesCall reports whether some valid capability register of
// ctx authorizes a control transfer to target — the same test as
// CheckCall's register fallback.
func (s *System) capAuthorizesCall(ctx *ThreadCtx, target mem.Addr) bool {
	for i := range ctx.CapRegs {
		c := ctx.CapRegs[i]
		if !c.ValidFor(ctx) {
			continue
		}
		if c.Covers(target, 1, PermRead) {
			return true
		}
		if c.Covers(target, 1, PermCall) && target%s.EntryAlign == 0 {
			return true
		}
	}
	return false
}

// CallCached is a checked control transfer through a verdict cache: on
// success the instruction pointer (and therefore the subject domain of
// subsequent checks) moves to target — the "regular procedure call
// across domains" that CODOMs makes free of pipeline stalls. A hit moves
// the instruction pointer directly (priming the subject-domain cache
// with the recorded target tag); a miss runs the full CheckCall and
// records the outcome. A verdict whose success came from a capability
// register (viaCap) additionally re-verifies, on every hit, that some
// currently-valid register still authorizes the transfer — capability
// state is per-call, not epoch-guarded.
func (s *System) CallCached(ctx *ThreadCtx, pt *mem.PageTable, target mem.Addr, v *CallVerdict) error {
	if v.valid && v.target == target && v.epoch == s.epoch && v.ptGen == pt.Gen() &&
		ctx.ipValid && ctx.ipDomain == v.subject &&
		(!v.viaCap || s.capAuthorizesCall(ctx, target)) {
		ctx.SetIPInDomain(target, v.tag)
		return nil
	}
	subject := ctx.CodeDomain(pt)
	if err := s.CheckCall(ctx, pt, target); err != nil {
		v.valid = false
		return err
	}
	pi, _ := pt.Lookup(target)
	perm := s.APLPerm(subject, pi.Tag)
	viaAPL := perm >= PermRead || (perm == PermCall && target%s.EntryAlign == 0)
	*v = CallVerdict{subject: subject, target: target, tag: pi.Tag,
		viaCap: pi.Tag != subject && !viaAPL,
		epoch:  s.epoch, ptGen: pt.Gen(), valid: true}
	ctx.SetIPInDomain(target, pi.Tag)
	return nil
}

// PrivVerdict memoizes a successful CheckPriv at a fixed instruction
// address, keyed on the page table's generation.
type PrivVerdict struct {
	ip    mem.Addr
	ptGen uint64
	valid bool
}

// CheckPrivCached is CheckPriv through a verdict cache; hits skip the
// page-table walk.
func (s *System) CheckPrivCached(ctx *ThreadCtx, pt *mem.PageTable, v *PrivVerdict) error {
	if v.valid && v.ip == ctx.ip && v.ptGen == pt.Gen() {
		return nil
	}
	if err := s.CheckPriv(ctx, pt); err != nil {
		v.valid = false
		return err
	}
	*v = PrivVerdict{ip: ctx.ip, ptGen: pt.Gen(), valid: true}
	return nil
}

// CheckPriv validates execution of a privileged instruction: the current
// code page must carry the privileged capability bit (§4.1), which is
// what lets dIPC proxies run kernel-ish code without a mode switch.
func (s *System) CheckPriv(ctx *ThreadCtx, pt *mem.PageTable) error {
	pi, ok := pt.Lookup(ctx.ip)
	if !ok || !pi.Flags.Has(mem.FlagPrivCap) {
		return &Fault{Subject: ctx.CodeDomain(pt), VA: ctx.ip,
			Reason: "privileged instruction outside privileged-capability page"}
	}
	return nil
}
