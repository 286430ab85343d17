package oltp

import "repro/internal/sim"

// OpKind is one DVDStore operation type.
type OpKind int

// Operation kinds.
const (
	OpBrowse OpKind = iota
	OpLogin
	OpPurchase
)

// String names the operation.
func (k OpKind) String() string {
	switch k {
	case OpBrowse:
		return "browse"
	case OpLogin:
		return "login"
	case OpPurchase:
		return "purchase"
	default:
		return "unknown"
	}
}

// Operation is one client request with its pre-drawn query plan. Each
// query carries its own result slot, which the database tier fills.
type Operation struct {
	Kind    OpKind
	Queries []dbCall
}

// genOp draws one operation from the DVDStore-like mix into op,
// reusing its query slice.
func genOp(rng *sim.Rand, prm *Params, op *Operation) {
	op.Queries = op.Queries[:0]
	add := func(q Query) { op.Queries = append(op.Queries, dbCall{Q: q}) }
	w := rng.Intn(prm.BrowseWeight + prm.LoginWeight + prm.PurchaseWeight)
	switch {
	case w < prm.BrowseWeight:
		op.Kind = OpBrowse
		add(Query{Kind: QBrowseCategory, Key: int32(rng.Intn(prm.Categories))})
		for i := 0; i < prm.BrowseGets; i++ {
			add(Query{Kind: QGetProduct, Key: int32(rng.Intn(prm.Products))})
		}
	case w < prm.BrowseWeight+prm.LoginWeight:
		op.Kind = OpLogin
		cust := int32(rng.Intn(prm.Customers))
		add(Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.LoginHistory; i++ {
			add(Query{Kind: QOrderHistory, Key: cust})
		}
	default:
		op.Kind = OpPurchase
		cust := int32(rng.Intn(prm.Customers))
		add(Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.PurchaseGets; i++ {
			add(Query{Kind: QGetProduct, Key: int32(rng.Intn(prm.Products))})
		}
		for i := 0; i < prm.PurchaseLines; i++ {
			item := int32(rng.Intn(prm.Products))
			add(Query{Kind: QAddOrderLine, Key: cust})
			add(Query{Kind: QUpdateStock, Key: item})
		}
		add(Query{Kind: QCommitOrder, Key: cust})
	}
}

// maxPlan is the number of queries in the mix's largest plan.
func (prm *Params) maxPlan() int {
	return max(1+prm.BrowseGets, 1+prm.LoginHistory, 2+prm.PurchaseGets+2*prm.PurchaseLines)
}

// request is one in-flight client request crossing the Gateway.
type request struct {
	op      *Operation
	started sim.Time
	// done takes the completion word id<<2 | class when the gateway
	// finishes the request (Gateway.finish); id names the request to
	// its client.
	done func(uint64)
	id   uint64
	// pooled marks a request Gateway.Issue took from its free list; the
	// gateway returns it there when it finishes the request. A
	// closed-loop client owns its request and leaves pooled unset.
	pooled bool
	next   *request // free-list link while pooled and idle
}
