package core

import (
	"repro/internal/codoms"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/stats"
)

// procEntry is the per-thread record locating a target process: the
// process plus this thread's per-process thread identifier (§5.2.1:
// "primary threads appear with different identifiers on each process").
type procEntry struct {
	proc *kernel.Process
	tid  int
}

// trackNode is one node of the per-thread binary search tree indexed by
// domain tag (the §6.1.2 warm path).
type trackNode struct {
	tag         codoms.Tag
	entry       *procEntry
	left, right *trackNode
}

func (n *trackNode) find(tag codoms.Tag) *procEntry {
	for n != nil {
		switch {
		case tag == n.tag:
			return n.entry
		case tag < n.tag:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

func insertNode(n *trackNode, tag codoms.Tag, e *procEntry) *trackNode {
	if n == nil {
		return &trackNode{tag: tag, entry: e}
	}
	switch {
	case tag < n.tag:
		n.left = insertNode(n.left, tag, e)
	case tag > n.tag:
		n.right = insertNode(n.right, tag, e)
	default:
		n.entry = e
	}
	return n
}

// kcsInlineDepth is the kernel control stack depth held inline in the
// thread state: chains up to this deep never allocate a KCS frame.
// Deeper chains spill to a heap slice, pre-sized from the proxy
// template's deepest observed chain.
const kcsInlineDepth = 8

// retCapEntry is one cached P3 return capability, valid while the APLs
// and the page table it was derived under are unchanged.
type retCapEntry struct {
	cap   codoms.Capability
	epoch uint64
	ptGen uint64
}

// threadState is the dIPC per-thread state hung off kernel.Thread.Ext:
// the kernel control stack, the process-tracking cache array (indexed by
// the 5-bit hardware domain tag), the tracking tree and the per-proxy
// return-capability cache.
type threadState struct {
	kcs        []kcsEntry
	kcsInline  [kcsInlineDepth]kcsEntry
	retCaps    map[*Proxy]retCapEntry
	trackCache [codoms.APLCacheSize]*procEntry
	trackTags  [codoms.APLCacheSize]codoms.Tag
	trackTree  *trackNode
	homeProc   *kernel.Process
	nextTIDs   map[int]int // per-target-process tid assignment
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

// state returns (creating on first use) the thread's dIPC state.
func state(t *kernel.Thread) *threadState {
	if ts, ok := t.Ext.(*threadState); ok {
		return ts
	}
	ts := &threadState{
		homeProc: t.Process(),
		nextTIDs: make(map[int]int),
	}
	ts.kcs = ts.kcsInline[:0]
	t.Ext = ts
	return ts
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
	if hw, ok := t.HW.Cache.Lookup(tag); ok {
		if e := ts.trackCache[hw]; e != nil && ts.trackTags[hw] == tag && e.proc == px.calleeProc {
			t.Exec(p.TrackProcessHot, stats.BlockProxy)
			t.MigrateTo(px.calleeProc)
			return
		}
	}
	if e := ts.trackTree.find(tag); e != nil {
		// Warm: refill the APL cache slot and the cache array.
		hw := t.HW.Cache.Insert(tag)
		ts.trackCache[hw] = e
		ts.trackTags[hw] = tag
		t.Exec(p.TrackProcessWarm, stats.BlockProxy)
		t.MigrateTo(px.calleeProc)
		return
	}
	// Cold: upcall into the target process's management thread, which
	// creates the per-process thread identity via a system call.
	ts.nextTIDs[px.calleeProc.PID]++
	e := &procEntry{proc: px.calleeProc, tid: ts.nextTIDs[px.calleeProc.PID]}
	ts.trackTree = insertNode(ts.trackTree, tag, e)
	hw := t.HW.Cache.Insert(tag)
	ts.trackCache[hw] = e
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
