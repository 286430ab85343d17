package sim

import "fmt"

// Link is a unidirectional message channel between two shards of a
// Cluster (or within one shard). Links are the only sanctioned way for
// simulation state owned by one part to influence another. A cross-shard
// link declares a positive lookahead — the minimum simulated delay of any
// message it carries (see cluster.go). The modeled transports map
// naturally: a NIC link's lookahead is its base wire latency, exactly the
// place the dIPC paper says cross-machine cost lives.
//
// # Determinism: the banded sequence order
//
// The engine breaks timestamp ties with its own monotonic sequence
// counter, which encodes "order of creation". Link deliveries carry an
// intrinsic order instead: a delivery's tie-breaker is
//
//	seq = 1<<63 | linkID<<40 | sendIdx
//
// Bit 63 puts all link deliveries in a band above every engine-local
// event (the engine counter stays far below 2^63), so at equal
// timestamps the engine first processes its own events, then link
// deliveries ordered by (linkID, sendIdx). Both components are model
// facts, not scheduling facts — linkID is assigned by Connect order and
// sendIdx counts sends on that link — so the delivery order at a tied
// instant is fixed by the model alone. The rules that make this hold for
// whole simulations are documented on Cluster.
type Link struct {
	id        int
	eng       *Engine
	lookahead Time
	sendIdx   uint64
	handler   func(v uint64)
}

const (
	linkSendBits = 40      // per-link send counter width
	linkIDBits   = 23      // link id width
	linkBand     = 1 << 63 // band bit: link deliveries sort after engine events
)

// SetHandler installs the receiver-side function invoked for each SendU64
// message. It runs in the engine context (like an At callback) and must not park. Must be set before the first SendU64.
func (l *Link) SetHandler(fn func(v uint64)) { l.handler = fn }

// SendU64 delivers the word v to the link's handler after delay d (which
// must be at least the declared lookahead). This is the allocation-free
// message lane: no closure, no boxing — the word rides the event's u64
// lane and the handler dispatch carries the link as an unboxed pointer.
// Must be called from the engine context.
//
//dipcvet:noalloc
func (l *Link) SendU64(d Time, v uint64) {
	if l.handler == nil {
		l.panicNoHandler()
	}
	if d < l.lookahead {
		l.panicBelowLookahead(d)
	}
	seq := linkBand | uint64(l.id)<<linkSendBits | l.sendIdx
	l.sendIdx++
	if l.sendIdx >= 1<<linkSendBits {
		l.panicSendOverflow()
	}
	l.eng.pushSeq(l.eng.after(d), seq, l, v)
}

// panicBelowLookahead is the send fast path's cold failure lane: message
// construction stays out of the //dipcvet:noalloc caller.
func (l *Link) panicBelowLookahead(d Time) {
	panic(fmt.Sprintf("sim: send on link %d with delay %v below declared lookahead %v",
		l.id, d, l.lookahead))
}

func (l *Link) panicSendOverflow() {
	panic(fmt.Sprintf("sim: link %d exceeded %d sends", l.id, uint64(1)<<linkSendBits))
}

func (l *Link) panicNoHandler() {
	panic(fmt.Sprintf("sim: SendU64 on link %d with no handler", l.id))
}
