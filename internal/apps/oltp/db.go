package oltp

import "repro/internal/kernel"

// The database tier: a small storage engine in the shape of the
// DVDStore schema — products browsed by category and customers with
// their order history. It stores only the columns a query reads or
// writes, each product's sold count and each customer's order count,
// as dense slices indexed by row id. Product i belongs to category
// i mod Categories, so a category's size is computed, not stored. A
// login's credential check is a charged cost. Each query charges one
// buffer-pool page touch per row it visits. The paper measures after a
// 2-minute warmup (§7.4) with a buffer pool that holds the whole store,
// so every page access is a hit; the on-disk configuration differs from
// tmpfs only in committing orders through synchronous log writes.

// DB is the database engine.
type DB struct {
	sold      []uint8 // units sold, per product; never above initialStock
	orders    []int32 // order lines placed, per customer
	nextOrder int

	disk *Disk
	// inMem marks the tmpfs configuration: no synchronous log writes.
	inMem bool

	prm *Params
}

// initialStock is every product's stock after the load phase. A
// product's stock is initialStock less its sold count.
const initialStock = 100

// NewDB populates the store with prm.Products products across
// prm.Categories categories and prm.Customers customers, like
// DVDStore's load phase.
func NewDB(m *kernel.Machine, prm *Params, inMem bool) *DB {
	return &DB{
		sold:   make([]uint8, prm.Products),
		orders: make([]int32, prm.Customers),
		disk:   &Disk{m: m},
		inMem:  inMem,
		prm:    prm,
	}
}

// touchPage charges one warm buffer-pool page access.
func touchPage(t *kernel.Thread) { t.ExecUser(t.Machine().P.CacheLineTouch * 4) }

// Query is one database request.
type Query struct {
	Kind QueryKind
	Key  int // category, customer or product id
}

// QueryKind selects the query plan.
type QueryKind int

// Query kinds in the DVDStore mix.
const (
	QBrowseCategory QueryKind = iota // top-N products of a category
	QGetProduct                      // single product row
	QLogin                           // credential check
	QOrderHistory                    // customer's past orders
	QAddOrderLine                    // insert one order line
	QCommitOrder                     // transaction commit (log write)
	QUpdateStock                     // stock decrement
)

// QueryResult is a query result: a row count, an approximate wire size,
// which the socket transports copy, and the id of the row a point query
// returns.
type QueryResult struct {
	Rows  int
	Bytes int
	Row   int
}

// dbCall is one query's slot in a request: the PHP tier fills Q, the
// database tier writes R in place, and both transports carry a pointer
// to it, so neither the query nor its result is boxed per call.
type dbCall struct {
	Q Query
	R QueryResult
}

// Exec runs one query on the calling thread, charging engine CPU time
// and buffer-pool page touches.
//
//dipcvet:noalloc
func (db *DB) Exec(t *kernel.Thread, q Query) QueryResult {
	prm := db.prm
	t.ExecUser(prm.DBExecCost) // parse/plan/lock/row work
	switch q.Kind {
	case QBrowseCategory:
		// Category c holds products c, c+nc, c+2nc, ... below Products.
		nc := prm.Categories
		c := q.Key % nc
		n := min(10, (prm.Products-c+nc-1)/nc)
		for i := 0; i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 120}
	case QGetProduct:
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 160, Row: q.Key % len(db.sold)}
	case QLogin:
		touchPage(t)
		t.ExecUser(prm.DBAuthCost) // password hash check
		return QueryResult{Rows: 1, Bytes: 96, Row: q.Key % len(db.orders)}
	case QOrderHistory:
		n := min(5, int(db.orders[q.Key%len(db.orders)]))
		for i := 0; i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 140}
	case QAddOrderLine:
		db.nextOrder++
		db.orders[q.Key%len(db.orders)]++
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 32, Row: db.nextOrder}
	case QUpdateStock:
		if s := &db.sold[q.Key%len(db.sold)]; *s < initialStock {
			*s++
		}
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 16}
	case QCommitOrder:
		// Transaction commit: flush the log synchronously. tmpfs makes
		// this a memory operation.
		if !db.inMem {
			db.disk.Write(t)
		} else {
			t.ExecUser(db.prm.DBExecCost / 2)
		}
		return QueryResult{Rows: 0, Bytes: 16}
	default:
		return QueryResult{}
	}
}
