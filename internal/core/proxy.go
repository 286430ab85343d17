package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// retCapReg is the capability register the proxy uses for the return
// capability it mints in prepare_ret (P3).
const retCapReg = codoms.NumCapRegs - 1

// callDesc is a proxy's precompiled call descriptor: everything the
// per-call path can resolve ahead of time, folded flat at proxy
// instantiation so that invoke is straight-line code. This mirrors the
// paper's run-time specialization (§6.1.1) one level further down — the
// template is specialized not just in code shape but in the exact cost
// sums, branch decisions and check verdicts the call will need.
type callDesc struct {
	// Isolation-stub and proxy policy costs, pre-summed from the merged
	// policy flags (the former stubEnter/stubExit/branch chains).
	callerEnter sim.Time
	callerExit  sim.Time
	calleeEnter sim.Time
	calleeExit  sim.Time
	enter       sim.Time // prepare_ret + policy enter (charged to BlockProxy)
	exit        sim.Time // deprepare_ret + policy exit (charged to BlockProxy)
	stubBlock   stats.Block

	// deadErr is the preconstructed dead-callee error: the message only
	// depends on the callee process, so the hot path never calls
	// fmt.Errorf.
	deadErr error

	// Memoized architectural check verdicts for the proxy's three control
	// transfers and its privileged-instruction check. Each revalidates
	// against the APL epoch and page-table generation on use.
	callIn    codoms.CallVerdict // caller code -> proxy entry point
	priv      codoms.PrivVerdict // privileged-capability check at the proxy
	callEntry codoms.CallVerdict // proxy -> target entry point
	callRet   codoms.CallVerdict // callee -> proxy_ret (via the minted capability)
}

// Proxy is one run-time-generated trusted code thunk bridging calls from
// a caller domain into one entry point of a callee domain (Fig. 3,
// domain P). Its code pages carry the CODOMs privileged-capability bit,
// so it can run the privileged parts of the isolation policy (process
// tracking, stack switching, DCS bounds) without entering the kernel.
type Proxy struct {
	rt         *Runtime
	tmpl       *ProxyTemplate
	entry      entryImpl
	mp         mergedPolicy
	sig        Signature
	domTag     codoms.Tag
	addr       mem.Addr // aligned proxy entry point
	retAddr    mem.Addr // aligned proxy_ret
	callerProc *kernel.Process
	calleeProc *kernel.Process
	cross      bool
	desc       callDesc
}

// liveRegs is the register count the stubs must preserve.
func (px *Proxy) liveRegs() int {
	if px.rt.FoldStubs {
		return px.rt.WorstCaseLiveRegs
	}
	if px.sig.LiveRegs > 0 {
		return px.sig.LiveRegs
	}
	return 6
}

// stubEnter is the isolate_call cost of one side's user stub.
func (px *Proxy) stubEnter(props IsoProps) sim.Time {
	p := px.rt.M.P
	var d sim.Time
	if props.Has(RegIntegrity) {
		d += sim.Time(px.liveRegs()) * p.RegSave
	}
	if props.Has(RegConfidentiality) {
		d += sim.Time(16-px.sig.InRegs) * p.RegZero
	}
	if props.Has(StackIntegrity) {
		d += 2 * p.CapCreate // argument window + unused-area capability
	}
	return d
}

// stubExit is the deisolate_call / isolate_ret cost of one side's stub.
func (px *Proxy) stubExit(props IsoProps) sim.Time {
	p := px.rt.M.P
	var d sim.Time
	if props.Has(RegIntegrity) {
		d += sim.Time(px.liveRegs()) * p.RegSave // restore
	}
	if props.Has(RegConfidentiality) {
		d += sim.Time(16-px.sig.OutRegs) * p.RegZero
	}
	if props.Has(StackIntegrity) {
		d += 2 * p.CapPushPop // drop the argument capabilities
	}
	return d
}

// stubBlock returns the accounting block stubs charge to: inlined stubs
// are user code co-optimized with the application; folded stubs execute
// inside the proxy.
func (px *Proxy) stubBlock() stats.Block {
	if px.rt.FoldStubs {
		return stats.BlockProxy
	}
	return stats.BlockStub
}

// compile folds the policy-flag branches and cost arithmetic of the call
// path into the proxy's descriptor. It runs once, at entry_request time,
// against the runtime configuration (FoldStubs, cost model) in force
// then — exactly when the paper's prototype specializes the proxy code.
func (px *Proxy) compile() {
	p := px.rt.M.P
	d := &px.desc
	d.callerEnter = px.stubEnter(px.mp.callerStub)
	d.callerExit = px.stubExit(px.mp.callerStub)
	d.calleeEnter = px.stubEnter(px.mp.calleeStub)
	d.calleeExit = px.stubExit(px.mp.calleeStub)
	d.stubBlock = px.stubBlock()
	enter := p.StackCheck + p.KCSPush + p.APLCacheLookup + p.CapCreate
	exit := p.KCSPop
	if px.mp.proxy.Has(StackConfIntegrity) {
		// isolate_pcall: stack switch plus the by-signature copies.
		enter += p.StackSwitch + p.Copy(px.sig.StackBytes)
		exit += p.StackSwitch + p.Copy(px.sig.StackRet)
	}
	// The DCS policies are modeled as cost only: the capability stack's
	// contents are not simulated.
	switch {
	case px.mp.proxy.Has(DCSConfIntegrity):
		enter += p.DCSSwitch + sim.Time(px.sig.CapArgs)*p.CapLoadStore
		exit += p.DCSSwitch + sim.Time(px.sig.CapRets)*p.CapLoadStore
	case px.mp.proxy.Has(DCSIntegrity):
		enter += p.DCSAdjust
		exit += p.DCSAdjust
	}
	d.enter, d.exit = enter, exit
	d.deadErr = fmt.Errorf("dipc: callee process %q is dead", px.calleeProc.Name)
}

// returnCap returns the P3 return capability for this proxy on the
// calling thread, minting it on first use and reusing the cached value
// while nothing it was derived from (the APLs, the page table) has
// changed. The simulated CapCreate cost is part of desc.enter — the
// cache only avoids re-deriving a bit-identical value on the host.
//
//dipcvet:noalloc
func (px *Proxy) returnCap(ts *threadState, hw *codoms.ThreadCtx) (codoms.Capability, error) {
	arch, pt := px.rt.M.Arch, px.rt.PT
	if rc, ok := ts.retCaps[px]; ok && rc.epoch == arch.Epoch() && rc.ptGen == pt.Gen() {
		return rc.cap, nil
	}
	c, err := arch.NewFromAPL(hw, pt, px.domTag, px.retAddr,
		int(arch.EntryAlign), codoms.PermCall)
	if err != nil {
		return codoms.Capability{}, err
	}
	if ts.retCaps == nil {
		ts.retCaps = make(map[*Proxy]retCapEntry) //dipcvet:alloc-ok first-use memoization; steady state hits the cache above
	}
	ts.retCaps[px] = retCapEntry{cap: c, epoch: arch.Epoch(), ptGen: pt.Gen()} //dipcvet:alloc-ok first-use memoization insert, amortized across all calls
	return c, nil
}

// Call bridges one synchronous call through the proxy: Fig. 3 steps
// 1–3 plus the return path. It performs the real CODOMs checks (the
// caller needs call permission to the proxy domain; the callee returns
// through the minted return capability), maintains the KCS, migrates the
// thread across processes, and charges every modeled instruction.
//
// A call into a dead process fails before it enters the proxy. A CODOMs
// fault on the way into the callee or back into proxy_ret surfaces as
// the returned error, after the proxy has restored its state (P3).
// Crashes inside the callee (§5.2.1) are not modeled.
func (ie *ImportedEntry) Call(t *kernel.Thread, in *Args) (*Args, error) {
	return ie.proxy.invoke(t, in)
}

//dipcvet:noalloc
func (px *Proxy) invoke(t *kernel.Thread, in *Args) (*Args, error) {
	rt := px.rt
	p := rt.M.P
	hw := &t.HW
	ts := state(t)
	d := &px.desc
	if px.calleeProc.Dead {
		return nil, d.deadErr
	}
	if in == nil {
		// Fresh value, not a shared zero: entries may legitimately echo
		// their input as the result, which the caller then owns and may
		// mutate. Nil-arg calls are off the measured hot paths.
		in = &Args{} //dipcvet:alloc-ok cold branch: measured hot paths always pass non-nil args
	}

	// ---- caller stub: isolate_call ----
	t.Exec(d.callerEnter, d.stubBlock)

	// ---- architectural call into the proxy (P2: needs call permission
	// to the proxy domain, lands only on the aligned entry) ----
	callerIP := hw.IP()
	callerDom := hw.CodeDomain(rt.PT)
	if cerr := rt.M.Arch.CallCached(hw, rt.PT, px.addr, &d.callIn); cerr != nil {
		return nil, cerr // hardware fault reflected to the caller
	}
	t.Exec(p.FuncCall, stats.BlockUser)
	if perr := rt.M.Arch.CheckPrivCached(hw, rt.PT, &d.priv); perr != nil {
		return nil, perr // unreachable: proxy pages are privileged
	}

	// ---- proxy entry: prepare_ret + policy enter ----
	fr := kcsEntry{proxy: px, callerProc: t.Process(), callerIP: callerIP,
		callerDom: callerDom, callerPTGen: rt.PT.Gen()}
	retCap, rerr := px.returnCap(ts, hw)
	if rerr != nil {
		hw.SetIP(callerIP)
		return nil, rerr
	}
	fr.savedCap = hw.CapRegs[retCapReg]
	hw.CapRegs[retCapReg] = retCap

	t.Exec(d.enter, stats.BlockProxy)

	// Pre-size the KCS to the deepest chain this proxy's template has
	// carried, so a fresh thread entering a deep chain grows it once.
	if c := px.tmpl.maxDepth; cap(ts.kcs) < c {
		grown := make([]kcsEntry, len(ts.kcs), c) //dipcvet:alloc-ok one-time growth to the template's max depth
		copy(grown, ts.kcs)
		ts.kcs = grown
	}
	ts.kcs = append(ts.kcs, fr) //dipcvet:alloc-ok pre-sized above; steady state reuses the pooled capacity
	depth := len(ts.kcs)
	if depth > px.tmpl.maxDepth {
		px.tmpl.maxDepth = depth
	}

	if px.cross {
		// track_process_call: in-place process switch (§6.1.2).
		px.trackProcessCall(t, ts)
		ts.kcs[depth-1].migrated = true
		t.Exec(p.TLSSwitch, stats.BlockTLS)
	}

	// ---- call into the target entry point ----
	if cerr := rt.M.Arch.CallCached(hw, rt.PT, px.entry.addr, &d.callEntry); cerr != nil {
		px.unwindFrame(t, ts, depth)
		return nil, cerr
	}
	t.Exec(p.FuncCall, stats.BlockUser)

	// ---- callee stub + target function ----
	t.Exec(d.calleeEnter, d.stubBlock)
	result := px.entry.desc.Fn(t, in)
	t.Exec(d.calleeExit, d.stubBlock)

	// ---- return into proxy_ret through the minted capability (P3) ----
	if cerr := rt.M.Arch.CallCached(hw, rt.PT, px.retAddr, &d.callRet); cerr != nil {
		px.unwindFrame(t, ts, depth)
		return nil, cerr
	}

	// ---- proxy_ret: deprepare_ret + policy exit ----
	if px.cross {
		px.trackProcessRet(t, &ts.kcs[depth-1])
		t.Exec(p.TLSSwitch, stats.BlockTLS)
	}
	hw.CapRegs[retCapReg] = ts.kcs[depth-1].savedCap
	ts.kcs = ts.kcs[:depth-1]
	t.Exec(d.exit, stats.BlockProxy)
	if fr.callerPTGen == rt.PT.Gen() {
		// The caller's code page cannot have changed domains: reinstate
		// the subject-domain cache along with the instruction pointer.
		hw.SetIPInDomain(callerIP, fr.callerDom)
	} else {
		hw.SetIP(callerIP)
	}

	// ---- caller stub: deisolate_call ----
	t.Exec(d.callerExit, d.stubBlock)
	return result, nil
}

// unwindFrame restores the proxy state recorded in the KCS entry at
// depth (1-based) after a failed call, then pops it. The restore mirrors
// proxy_ret: process migration, TLS, the DCS policy's cost and the
// spilled capability register.
func (px *Proxy) unwindFrame(t *kernel.Thread, ts *threadState, depth int) {
	if depth != len(ts.kcs) {
		panic(fmt.Sprintf("dipc: unwind depth %d does not match KCS depth %d", depth, len(ts.kcs)))
	}
	p := px.rt.M.P
	fr := &ts.kcs[depth-1]
	cost := p.KCSPop
	if fr.migrated {
		t.MigrateTo(fr.callerProc)
		cost += p.TrackProcessHot/2 + p.TLSSwitch
	}
	switch {
	case px.mp.proxy.Has(DCSConfIntegrity):
		cost += p.DCSSwitch // discard the callee's stack; no results cross back
	case px.mp.proxy.Has(DCSIntegrity):
		cost += p.DCSAdjust
	}
	t.HW.CapRegs[retCapReg] = fr.savedCap
	ts.kcs = ts.kcs[:depth-1]
	t.Exec(cost, stats.BlockProxy)
	t.HW.SetIP(fr.callerIP)
}
