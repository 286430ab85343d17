package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ipc"
	"repro/internal/kernel"
	"repro/internal/stats"
)

// Handler processes one inter-tier call and returns the result plus its
// wire size (for the copying transports).
type Handler func(t *kernel.Thread, op string, payload any) (any, int)

// Transport abstracts how one tier invokes the next: a plain function
// call (Ideal), a dIPC proxy (dIPC), or UNIX sockets between worker
// pools (Linux).
type Transport interface {
	// TryCall performs one synchronous request and returns the result.
	// It surfaces dead callees, injected faults, and in-band remote
	// errors as an error; a fault-free transport always returns nil.
	TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error)
}

// mustCall is the fault-free call path: a TryCall whose error is a
// model bug, not an outcome (fig8's Stack never arms faults).
func mustCall(tr Transport, t *kernel.Thread, op string, payload any, reqBytes int) any {
	out, err := tr.TryCall(t, op, payload, reqBytes)
	if err != nil {
		panic(fmt.Sprintf("oltp: call %q: %v", op, err))
	}
	return out
}

// DirectTransport is the Ideal configuration's path: a function call
// into the co-located component.
type DirectTransport struct {
	H Handler
	// Faults, when set, draws a per-call verdict before each call (nil
	// for fault-free runs).
	Faults *faults.CallSite
}

// TryCall implements Transport: an injected fault or an in-band
// RemoteError from the handler comes back as an error.
func (d *DirectTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	if err := injectFault(t, d.Faults); err != nil {
		return nil, err
	}
	t.Exec(t.Machine().P.FuncCall, stats.BlockUser)
	out, _ := d.H(t, op, payload)
	return unwrapRemote(out)
}

// SockTransport is the Linux baseline: requests flow through a UNIX
// socket to a pool of service threads in the target process, and
// responses come back on a per-caller reply socket — the paper's §2.3
// "false concurrency".
type SockTransport struct {
	prm     *Params
	req     *ipc.Socket
	h       Handler
	replies map[*kernel.Thread]*ipc.Socket
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
	// Proc is the serving process; when set and dead, TryCall fails fast
	// (connection refused) instead of queueing to a pool that will never
	// accept.
	Proc *kernel.Process
}

// sockReq is the wire request.
type sockReq struct {
	op      string
	payload any
	reply   *ipc.Socket
}

// NewSockTransport builds the socket endpoint for handler h.
func NewSockTransport(prm *Params, h Handler) *SockTransport {
	return &SockTransport{
		prm:     prm,
		req:     ipc.NewConn(0).AtoB,
		h:       h,
		replies: make(map[*kernel.Thread]*ipc.Socket),
	}
}

// TryCall implements Transport: a dead serving process refuses the
// connection, injected faults surface as errors, and a handler's in-band
// RemoteError is unwrapped. Requests already accepted before a kill are
// still answered — worker threads drain in flight, like a TCP stack
// flushing established connections while refusing new ones.
func (s *SockTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	if s.Proc != nil && s.Proc.Dead {
		return nil, fmt.Errorf("oltp: connect %s: %w", s.Proc.Name, faults.ErrDead)
	}
	if err := injectFault(t, s.Faults); err != nil {
		return nil, err
	}
	reply := s.replies[t]
	if reply == nil {
		reply = ipc.NewConn(0).AtoB
		s.replies[t] = reply
	}
	t.ExecUser(s.prm.ProtoMarshal) // marshal request
	s.req.Send(t, ipc.Message{Size: reqBytes, Payload: &sockReq{op: op, payload: payload, reply: reply}})
	msg := reply.Recv(t)
	t.ExecUser(s.prm.ProtoMarshal) // unmarshal response
	return unwrapRemote(msg.Payload)
}

// Worker runs one service thread: the per-tier thread pools of the
// Linux configuration call this in a loop.
func (s *SockTransport) Worker(t *kernel.Thread) {
	for {
		msg := s.req.Recv(t)
		r := msg.Payload.(*sockReq)
		t.ExecUser(s.prm.ProtoMarshal) // unmarshal + demultiplex
		out, respBytes := s.h(t, r.op, r.payload)
		t.ExecUser(s.prm.ProtoMarshal) // marshal response
		r.reply.Send(t, ipc.Message{Size: respBytes, Payload: out})
	}
}

// DIPCTransport bridges tiers with dIPC proxies: the calling thread
// crosses into the target process in place.
type DIPCTransport struct {
	entries map[string]*core.ImportedEntry
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
}

// NewDIPCTransport wraps resolved entries keyed by operation name.
func NewDIPCTransport(entries map[string]*core.ImportedEntry) *DIPCTransport {
	return &DIPCTransport{entries: entries}
}

// TryCall implements Transport: dIPC's own error path (a dead callee
// fails the proxy's liveness check) propagates as an error instead of a
// panic, so chaos runs exercise the same descriptor revalidation the
// core layer implements.
func (d *DIPCTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	if err := injectFault(t, d.Faults); err != nil {
		return nil, err
	}
	ent, ok := d.entries[op]
	if !ok {
		return nil, fmt.Errorf("oltp: no dIPC entry for %q", op)
	}
	out, err := ent.Call(t, &core.Args{Data: payload, StackBytes: 64})
	if err != nil {
		return nil, fmt.Errorf("oltp: dIPC call %q: %w", op, err)
	}
	if out == nil {
		return nil, nil
	}
	return unwrapRemote(out.Data)
}

// handlerEntry adapts a Handler into a dIPC entry function.
func handlerEntry(h Handler, op string) core.Func {
	return func(t *kernel.Thread, in *core.Args) *core.Args {
		out, _ := h(t, op, in.Data)
		return &core.Args{Data: out}
	}
}
