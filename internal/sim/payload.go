package sim

// payload is the value a wakeup delivers to a parked Proc. The hot wake
// paths — Sleep's timer, bare WakeOne, the kernel's futex and timer
// wakes — carry nil or a machine word; routing those through dedicated
// lanes keeps the event heap and the procs' wake slots free of interface
// values.
type payload struct {
	boxed any    // payBoxed: arbitrary caller value, boxed as before
	u64   uint64 // payU64: unboxed word-sized value
	kind  uint8
	timer uint8 // 1 + index of the timer lane a heap entry heads, else 0
}

const (
	payNil   uint8 = iota // nil payload (Sleep, bare wakes)
	payU64                // unboxed uint64 (WakeU64)
	payBoxed              // anything else
)

// boxPayload wraps an arbitrary wake value. nil is routed to its
// unboxed lane; a zero-size value boxes without allocating. uint64 values deliberately are not: the
// caller already boxed the value to pass it as any, and unboxing here
// would just force the consuming Wait to box it again; callers that want
// the word lane use the typed WakeU64 entry points instead.
func boxPayload(v any) payload {
	if v == nil {
		return payload{}
	}
	return payload{kind: payBoxed, boxed: v}
}

// value unwraps the payload to the any the generic Wait APIs return.
// Note a payU64 payload is boxed here — pair WakeU64 with WaitU64 to
// stay unboxed end to end.
func (pl payload) value() any {
	switch pl.kind {
	case payNil:
		return nil
	case payU64:
		return pl.u64
	default:
		return pl.boxed
	}
}
