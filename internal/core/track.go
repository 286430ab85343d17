package core

import (
	"fmt"

	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/stats"
)

// trackNode is one node of the per-thread binary search tree indexed by
// domain tag (the §6.1.2 warm path), locating the tag's process.
type trackNode struct {
	tag         codoms.Tag
	proc        *kernel.Process
	left, right *trackNode
}

func (n *trackNode) find(tag codoms.Tag) *kernel.Process {
	for n != nil {
		switch {
		case tag == n.tag:
			return n.proc
		case tag < n.tag:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

func insertNode(n *trackNode, tag codoms.Tag, proc *kernel.Process) *trackNode {
	if n == nil {
		return &trackNode{tag: tag, proc: proc}
	}
	switch {
	case tag < n.tag:
		n.left = insertNode(n.left, tag, proc)
	case tag > n.tag:
		n.right = insertNode(n.right, tag, proc)
	default:
		n.proc = proc
	}
	return n
}

// kcsInlineDepth is the kernel control stack depth held inline in the
// thread state, that of Fig. 8's web -> PHP -> DB chain: chains up to
// two deep never allocate a KCS frame. Deeper chains spill to a heap
// slice, pre-sized from the proxy template's deepest observed chain.
const kcsInlineDepth = 2

// retCapEntry is one cached P3 return capability, valid while the APLs
// and the page table it was derived under are unchanged. set tells a
// minted entry from an empty slot.
type retCapEntry struct {
	cap   codoms.Capability
	epoch uint64
	ptGen uint64
	set   bool
}

// threadState is the dIPC per-thread state hung off kernel.Thread.Ext,
// dIPC's one allocation per thread, made on the thread's first dIPC
// call. It holds the thread's CODOMs per-hardware-thread context —
// §4.1's APL cache and the capability registers, which travel with the
// thread (the APL cache is switched lazily, §7.5) — so a thread of the
// Linux or Ideal baselines, which model an unmodified machine, carries
// none, and neither does a thread that only enters its process's code.
// Beside it are the kernel control stack, the process-tracking cache
// array (indexed by the 5-bit hardware domain tag), the tracking tree
// and the per-proxy return-capability cache, allocated at the first
// call.
type threadState struct {
	hw         codoms.ThreadCtx
	kcs        []kcsEntry
	kcsInline  [kcsInlineDepth]kcsEntry
	retCaps    []retCapEntry // indexed by Proxy.id
	trackCache [codoms.APLCacheSize]*kernel.Process
	trackTags  [codoms.APLCacheSize]codoms.Tag
	trackTree  *trackNode
}

// kcsEntry is one kernel-control-stack frame: who called through which
// proxy, and everything the proxy must restore on return or after a
// failed call (P3).
type kcsEntry struct {
	proxy       *Proxy
	callerProc  *kernel.Process
	callerIP    mem.Addr
	callerDom   codoms.Tag        // subject domain of the caller's code page
	callerPTGen uint64            // page-table generation callerDom was read under
	savedCap    codoms.Capability // capability register spilled for prepare_ret
	migrated    bool
}

// enteredCode is what Ext holds for a thread that has entered its
// process's code but made no dIPC call yet; being zero-sized, it costs
// no allocation.
type enteredCode struct{}

// state returns the thread's dIPC state, creating it at the first call
// on the code page the thread entered, if any: only dIPC migrates a
// thread, so it is still in that process. A thread that uses dIPC leaves
// Ext to dIPC: state panics on a value another layer put there.
func (rt *Runtime) state(t *kernel.Thread) *threadState {
	switch ext := t.Ext.(type) {
	case *threadState:
		return ext
	case nil, enteredCode:
		ts := &threadState{}
		ts.kcs = ts.kcsInline[:0]
		if ext != nil {
			ts.hw.SetIP(rt.codeBases[t.Process()])
		}
		t.Ext = ts
		return ts
	}
	panic(fmt.Sprintf("dipc: thread %q holds a %T in Ext, not dIPC state", t.Name, t.Ext))
}

// trackProcessCall implements the §6.1.2 lookup on the call path and
// migrates the thread into the target process. The hot path indexes a
// per-thread cache array with the hardware domain tag retrieved from the
// APL cache; the warm path walks the per-thread tree; the cold path
// upcalls into a management thread in the target process, which runs a
// system call to create the bookkeeping.
func (px *Proxy) trackProcessCall(t *kernel.Thread, ts *threadState) {
	p := t.Machine().P
	tag := px.calleeProc.DefaultTag
	if hw, ok := ts.hw.Cache.Lookup(tag); ok {
		if ts.trackCache[hw] == px.calleeProc && ts.trackTags[hw] == tag {
			t.Exec(p.TrackProcessHot, stats.BlockProxy)
			t.MigrateTo(px.calleeProc)
			return
		}
	}
	if proc := ts.trackTree.find(tag); proc != nil {
		// Warm: refill the APL cache slot and the cache array.
		hw := ts.hw.Cache.Insert(tag)
		ts.trackCache[hw] = proc
		ts.trackTags[hw] = tag
		t.Exec(p.TrackProcessWarm, stats.BlockProxy)
		t.MigrateTo(px.calleeProc)
		return
	}
	// Cold: upcall into the target process's management thread, which
	// creates the per-process thread identity via a system call.
	ts.trackTree = insertNode(ts.trackTree, tag, px.calleeProc)
	hw := ts.hw.Cache.Insert(tag)
	ts.trackCache[hw] = px.calleeProc
	ts.trackTags[hw] = tag
	t.Exec(p.TrackProcessCold, stats.BlockKernel)
	t.MigrateTo(px.calleeProc)
}

// trackProcessRet restores the caller's process on return: current is
// simply reloaded from the KCS (§6.1.2).
func (px *Proxy) trackProcessRet(t *kernel.Thread, fr *kcsEntry) {
	t.Exec(t.Machine().P.TrackProcessHot/2, stats.BlockProxy)
	t.MigrateTo(fr.callerProc)
}
