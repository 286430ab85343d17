package sim

import (
	"fmt"
	"sync"
)

// Link is a unidirectional message channel between two shards of a
// Cluster (or within one shard). Links are the only sanctioned way for
// simulation state owned by one shard to influence another: a cross-shard
// link declares a positive lookahead — the minimum simulated delay of any
// message it carries — and that declaration is what lets the cluster's
// conservative synchronization run the shards in parallel (see cluster.go).
// The modeled transports map naturally: a NIC link's lookahead is its base
// wire latency, exactly the place the dIPC paper says cross-domain cost
// lives.
//
// # Determinism: the banded sequence order
//
// The solo engine breaks timestamp ties with its own monotonic sequence
// counter, which encodes "order of creation". Across shards there is no
// shared creation order, so link deliveries carry an intrinsic one
// instead: a delivery's tie-breaker is
//
//	seq = 1<<63 | linkID<<40 | sendIdx
//
// Bit 63 puts all link deliveries in a band above every engine-local
// event (the engine counter stays far below 2^63), so at equal
// timestamps a shard first processes its own events, then link
// deliveries ordered by (linkID, sendIdx). Both components are placement
// facts, not scheduling facts — linkID is assigned by Connect order and
// sendIdx counts sends on that link — so the delivery order at a tied
// instant is byte-identical no matter how the simulation is cut into
// shards, including the 1-shard reference cut. The contract that makes
// this hold for whole simulations is the ownership discipline documented
// on Cluster.
type Link struct {
	id        int
	from, to  *Shard
	lookahead Time
	sendIdx   uint64
	handler   func(v uint64)

	// Cross-shard buffering: a bounded channel fast path with a
	// mutex-guarded spill slice once the channel fills. Sends never
	// block (the receiver only drains at the epoch barrier, so blocking
	// would deadlock), and drain order is irrelevant — the receiving
	// heap re-orders everything by (at, banded seq).
	ch    chan linkMsg
	mu    sync.Mutex
	spill []linkMsg
}

// linkMsg is one in-flight cross-shard message.
type linkMsg struct {
	at  Time
	seq uint64
	u64 uint64
	fn  func()
}

const (
	linkSendBits = 40      // per-link send counter width
	linkIDBits   = 23      // link id width
	linkBand     = 1 << 63 // band bit: link deliveries sort after engine events
	linkChanCap  = 256     // cross-shard channel fast-path depth
)

// Lookahead returns the minimum simulated delay declared at Connect time.
func (l *Link) Lookahead() Time { return l.lookahead }

// SetHandler installs the receiver-side function invoked for each SendU64
// message. It runs in the receiving shard's engine context (like an At
// callback) and must not park. Must be set before the first SendU64.
func (l *Link) SetHandler(fn func(v uint64)) { l.handler = fn }

// SendU64 delivers the word v to the link's handler after delay d (which
// must be at least the declared lookahead). This is the allocation-free
// message lane: no closure, no boxing — the word rides the event's u64
// lane and the handler dispatch carries the link as an unboxed pointer.
// Must be called from the sending shard's engine context.
//
//dipcvet:noalloc
func (l *Link) SendU64(d Time, v uint64) {
	if l.handler == nil {
		l.panicNoHandler()
	}
	l.send(d, v, nil)
}

// Send runs fn in the receiving shard's engine context after delay d
// (which must be at least the declared lookahead). The closure lane costs
// one allocation per send; use SendU64 on hot paths. Must be called from
// the sending shard's engine context.
func (l *Link) Send(d Time, fn func()) {
	if fn == nil {
		panic(fmt.Sprintf("sim: Send(nil) on link %d", l.id))
	}
	l.send(d, 0, fn)
}

//dipcvet:noalloc
func (l *Link) send(d Time, v uint64, fn func()) {
	if d < l.lookahead {
		l.panicBelowLookahead(d)
	}
	at := l.from.eng.now + d
	seq := linkBand | uint64(l.id)<<linkSendBits | l.sendIdx
	l.sendIdx++
	if l.sendIdx >= 1<<linkSendBits {
		l.panicSendOverflow()
	}
	if l.from == l.to {
		// Intra-shard: the sender holds this engine's control, so the
		// event can go straight into the heap (keeping the banded seq,
		// so the delivery order matches any other placement).
		l.to.eng.pushSeq(at, seq, l, v, fn)
		return
	}
	m := linkMsg{at: at, seq: seq, u64: v, fn: fn}
	select {
	case l.ch <- m:
	default:
		l.mu.Lock()
		l.spill = append(l.spill, m) //dipcvet:alloc-ok overflow lane past the 256-entry channel; drained and capacity-reused every epoch
		l.mu.Unlock()
	}
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

// drain moves every buffered message into the receiving shard's heap. It
// runs only at the epoch barrier, single-threaded, after all shard
// goroutines have joined; the channel receive provides the happens-before
// edge for the fast path and the mutex for the spill.
func (l *Link) drain() {
	for {
		select {
		case m := <-l.ch:
			l.to.eng.pushSeq(m.at, m.seq, l, m.u64, m.fn)
		default:
			l.mu.Lock()
			sp := l.spill
			l.spill = l.spill[:0]
			l.mu.Unlock()
			for i := range sp {
				l.to.eng.pushSeq(sp[i].at, sp[i].seq, l, sp[i].u64, sp[i].fn)
				sp[i] = linkMsg{}
			}
			return
		}
	}
}
