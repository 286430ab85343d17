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

// Operation is one client request with its pre-drawn query plan.
type Operation struct {
	Kind    OpKind
	Queries []Query
}

// GenOp draws one operation from the DVDStore-like mix.
func GenOp(rng *sim.Rand, prm *Params) *Operation {
	w := rng.Intn(prm.BrowseWeight + prm.LoginWeight + prm.PurchaseWeight)
	switch {
	case w < prm.BrowseWeight:
		op := &Operation{Kind: OpBrowse}
		cat := rng.Intn(prm.Categories)
		op.Queries = append(op.Queries, Query{Kind: QBrowseCategory, Key: cat})
		for i := 0; i < prm.BrowseGets; i++ {
			op.Queries = append(op.Queries, Query{Kind: QGetProduct, Key: rng.Intn(prm.Products)})
		}
		return op
	case w < prm.BrowseWeight+prm.LoginWeight:
		op := &Operation{Kind: OpLogin}
		cust := rng.Intn(prm.Customers)
		op.Queries = append(op.Queries, Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.LoginHistory; i++ {
			op.Queries = append(op.Queries, Query{Kind: QOrderHistory, Key: cust})
		}
		return op
	default:
		op := &Operation{Kind: OpPurchase}
		cust := rng.Intn(prm.Customers)
		op.Queries = append(op.Queries, Query{Kind: QLogin, Key: cust})
		for i := 0; i < prm.PurchaseGets; i++ {
			op.Queries = append(op.Queries, Query{Kind: QGetProduct, Key: rng.Intn(prm.Products)})
		}
		for i := 0; i < prm.PurchaseLines; i++ {
			item := rng.Intn(prm.Products)
			op.Queries = append(op.Queries,
				Query{Kind: QAddOrderLine, Key: cust, Key2: item, Quantity: 1},
				Query{Kind: QUpdateStock, Key: item})
		}
		op.Queries = append(op.Queries, Query{Kind: QCommitOrder, Key: cust})
		return op
	}
}

// request is one in-flight client request crossing the Gateway.
type request struct {
	op      *Operation
	started sim.Time
	done    sim.Waiter
	// err is the failure outcome reported back to the client (nil on
	// success).
	err error
}
