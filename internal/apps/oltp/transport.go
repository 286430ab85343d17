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
	prm *Params
	req ipc.Socket
	h   Handler
	// calls holds each caller thread's request record, reused for every
	// call: a caller has at most one request in flight.
	calls map[*kernel.Thread]*sockReq
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
	// Proc is the serving process; when set and dead, TryCall fails fast
	// (connection refused) instead of queueing to a pool that will never
	// accept.
	Proc *kernel.Process
}

// sockReq is the wire request, carrying the caller's reply socket.
type sockReq struct {
	op      string
	payload any
	reply   ipc.Socket
}

// NewSockTransport builds the socket endpoint for handler h.
func NewSockTransport(prm *Params, h Handler) *SockTransport {
	return &SockTransport{
		prm:   prm,
		h:     h,
		calls: make(map[*kernel.Thread]*sockReq),
	}
}

// TryCall implements Transport: a dead serving process refuses the
// connection, injected faults surface as errors, and a handler's in-band
// RemoteError is unwrapped. Requests already accepted before a kill are
// still answered — worker threads drain in flight, like a TCP stack
// flushing established connections while refusing new ones.
//
//dipcvet:noalloc
func (s *SockTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	if s.Proc != nil && s.Proc.Dead {
		return nil, refused(s.Proc)
	}
	if err := injectFault(t, s.Faults); err != nil {
		return nil, err
	}
	r := s.calls[t]
	if r == nil {
		r = &sockReq{} //dipcvet:alloc-ok first call on this thread builds its record, reply socket inline, once
		s.calls[t] = r //dipcvet:alloc-ok first-use insert; later calls on this thread reuse the record
	}
	r.op, r.payload = op, payload
	t.ExecUser(s.prm.ProtoMarshal) // marshal request
	s.req.Send(t, ipc.Message{Size: reqBytes, Payload: r})
	msg := r.reply.Recv(t)
	t.ExecUser(s.prm.ProtoMarshal) // unmarshal response
	return unwrapRemote(msg.Payload)
}

// refused is the error of a call to a dead serving process.
func refused(p *kernel.Process) error {
	return &faults.Error{Msg: "oltp: connect " + p.Name, Err: faults.ErrDead}
}

// Worker runs one service thread: the per-tier thread pools of the
// Linux configuration call this in a loop.
//
//dipcvet:noalloc
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
	// args holds each calling thread's argument record, reused for every
	// call: the entry writes its result back into it (see handlerEntry).
	args map[*kernel.Thread]*core.Args
	// Faults, when set, draws a per-call verdict before each TryCall.
	Faults *faults.CallSite
}

// NewDIPCTransport wraps resolved entries keyed by operation name.
func NewDIPCTransport(entries map[string]*core.ImportedEntry) *DIPCTransport {
	return &DIPCTransport{entries: entries, args: make(map[*kernel.Thread]*core.Args)}
}

// TryCall implements Transport: dIPC's own error path (a dead callee
// fails the proxy's liveness check) propagates as an error instead of a
// panic, so chaos runs exercise the same descriptor revalidation the
// core layer implements.
//
//dipcvet:noalloc
func (d *DIPCTransport) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	if err := injectFault(t, d.Faults); err != nil {
		return nil, err
	}
	ent, ok := d.entries[op]
	if !ok {
		panicUnknownOp("dIPC", op)
	}
	in := d.args[t]
	if in == nil {
		in = &core.Args{StackBytes: 64} //dipcvet:alloc-ok first call on this thread builds its record once
		d.args[t] = in                  //dipcvet:alloc-ok first-use insert; later calls on this thread reuse the record
	}
	in.Data = payload
	out, err := ent.Call(t, in)
	if err != nil {
		return nil, callFailed(op, err)
	}
	if out == nil {
		return nil, nil
	}
	return unwrapRemote(out.Data)
}

// callFailed wraps a failed dIPC call's error, off the call path.
func callFailed(op string, err error) error {
	return &faults.Error{Msg: fmt.Sprintf("oltp: dIPC call %q", op), Err: err}
}

// handlerEntry adapts a Handler into a dIPC entry function.
func handlerEntry(h Handler, op string) core.Func {
	return (&entry{h: h, op: op}).call
}

// entry is one exported op of a Handler.
type entry struct {
	h  Handler
	op string
}

// call runs the handler on the caller's argument record and writes the
// result back into it: the record belongs to the calling thread, which
// reads the result as soon as the proxy returns.
//
//dipcvet:noalloc
func (e *entry) call(t *kernel.Thread, in *core.Args) *core.Args {
	in.Data, _ = e.h(t, e.op, in.Data)
	return in
}
