package ipc

import (
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// L4Endpoint models synchronous IPC in the style of L4 Fiasco.OC: a
// rendezvous point where a server thread waits for calls and callers
// hand their CPU directly to the server, passing the payload "inlined in
// registers" (§2.2). The same-CPU fast path bypasses the scheduler; the
// cross-CPU path degenerates to wakeups and IPIs, which is why the paper
// finds little benefit in cross-CPU synchronous IPC.
type L4Endpoint struct {
	server  *kernel.Thread     // server parked waiting for a call, if any
	pending sim.Queue[*l4Call] // calls waiting for the server
}

// l4Call carries one request through the rendezvous.
type l4Call struct {
	from *kernel.Thread
	msg  any
}

// Call performs a synchronous IPC: send msg to the server and block for
// its reply. The payload is register-inlined, so no data copies are
// charged beyond the fixed kernel path.
func (ep *L4Endpoint) Call(t *kernel.Thread, msg any) any {
	prm := t.Machine().P
	t.Exec(prm.SyscallTrap, stats.BlockSyscall)
	t.Exec(prm.SyscallDispatch, stats.BlockDispatch)
	call := &l4Call{from: t, msg: msg}
	var reply any
	if srv := ep.server; srv != nil && srv.State() == kernel.ThreadBlocked && canHandoff(t, srv) {
		// Fast path: hand the CPU straight to the waiting server. The
		// reply arrives when the server direct-switches back.
		ep.server = nil
		reply = t.DirectSwitch(srv, call, prm.L4IPCKernel)
	} else {
		t.Exec(prm.L4IPCKernel, stats.BlockKernel)
		if srv := ep.server; srv != nil && srv.State() == kernel.ThreadBlocked {
			// Server waiting on another CPU: wake it there.
			ep.server = nil
			reply = t.Block(func() { srv.Wake(call, t) })
		} else {
			reply = t.Block(func() { ep.pending.PushBack(call) })
		}
	}
	t.Exec(prm.SyscallRet, stats.BlockSyscall)
	return reply
}

// Wait blocks the server until a call arrives, returning the request.
// Pair each Wait with ReplyWait (or a final Reply) on the same thread.
func (ep *L4Endpoint) Wait(t *kernel.Thread) any {
	prm := t.Machine().P
	t.Exec(prm.SyscallTrap, stats.BlockSyscall)
	t.Exec(prm.SyscallDispatch, stats.BlockDispatch)
	t.Exec(prm.L4IPCKernel, stats.BlockKernel)
	call := ep.nextCall(t)
	t.Exec(prm.SyscallRet, stats.BlockSyscall)
	t.Ext = call
	return call.msg
}

// ReplyWait sends reply to the current caller and blocks for the next
// call in a single kernel entry (the L4 server fast path).
func (ep *L4Endpoint) ReplyWait(t *kernel.Thread, reply any) any {
	prm := t.Machine().P
	t.Exec(prm.SyscallTrap, stats.BlockSyscall)
	t.Exec(prm.SyscallDispatch, stats.BlockDispatch)
	call, _ := t.Ext.(*l4Call)
	t.Ext = nil
	var next *l4Call
	if call != nil && ep.pending.Len() == 0 && canHandoff(t, call.from) {
		// Direct switch back to the caller; the next call will arrive
		// through the caller-side fast path or a wake.
		ep.server = t
		v := t.DirectSwitch(call.from, reply, prm.L4IPCKernel)
		next = v.(*l4Call)
	} else {
		t.Exec(prm.L4IPCKernel, stats.BlockKernel)
		if call != nil {
			call.from.Wake(reply, t)
		}
		next = ep.nextCall(t)
	}
	t.Exec(prm.SyscallRet, stats.BlockSyscall)
	t.Ext = next
	return next.msg
}

// nextCall dequeues a pending call or parks the server until one comes.
func (ep *L4Endpoint) nextCall(t *kernel.Thread) *l4Call {
	if ep.pending.Len() > 0 {
		return ep.pending.PopFront()
	}
	ep.server = t
	v := t.Block(nil)
	return v.(*l4Call)
}

// canHandoff reports whether other may run on cur's CPU (pinning allows
// the direct-switch fast path).
func canHandoff(cur, other *kernel.Thread) bool {
	pin := other.Pinned()
	return pin == nil || pin == cur.CPU()
}
