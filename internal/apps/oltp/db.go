package oltp

import "repro/internal/kernel"

// The database tier: a small storage engine in the shape of the
// DVDStore schema — products browsed by category and customers with
// their order history. It stores only the column a query reads, each
// customer's order count, as a dense slice indexed by customer id.
// Product i belongs to category i mod Categories, so a category's size
// is computed, not stored, and no stock is kept: a stock update charges
// its page touch and changes nothing a later query reads. A login's
// credential check is a charged cost. Each query charges one
// buffer-pool page touch per row it visits. The paper measures after a
// 2-minute warmup (§7.4) with a buffer pool that holds the whole store,
// so every page access is a hit; the on-disk configuration differs from
// tmpfs only in committing orders through synchronous log writes.

// DB is the database engine.
type DB struct {
	orders []uint8 // order lines placed, per customer; saturates at 255

	disk *Disk
	// inMem marks the tmpfs configuration: no synchronous log writes.
	inMem bool

	prm *Params
}

// NewDB populates the store with prm.Customers customers, like
// DVDStore's load phase; products and categories need no rows.
func NewDB(m *kernel.Machine, prm *Params, inMem bool) *DB {
	return &DB{
		orders: make([]uint8, prm.Customers),
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
	Key  int32 // category, customer or product id
}

// QueryKind selects the query plan.
type QueryKind int32

// Query kinds in the DVDStore mix.
const (
	QBrowseCategory QueryKind = iota // top-N products of a category
	QGetProduct                      // single product row
	QLogin                           // credential check
	QOrderHistory                    // customer's past orders
	QAddOrderLine                    // insert one order line
	QCommitOrder                     // transaction commit (log write)
	QUpdateStock                     // stock update: one page touch, no stored stock
)

// QueryResult is a query result: a row count and an approximate wire
// size, which the socket transports copy.
type QueryResult struct {
	Rows  int32
	Bytes int32
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
		c := int(q.Key) % nc
		n := int32(min(10, (prm.Products-c+nc-1)/nc))
		for i := int32(0); i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 120}
	case QGetProduct:
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 160}
	case QLogin:
		touchPage(t)
		t.ExecUser(prm.DBAuthCost) // password hash check
		return QueryResult{Rows: 1, Bytes: 96}
	case QOrderHistory:
		n := int32(min(5, db.orders[int(q.Key)%len(db.orders)]))
		for i := int32(0); i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 140}
	case QAddOrderLine:
		if o := &db.orders[int(q.Key)%len(db.orders)]; *o < 255 {
			*o++
		}
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 32}
	case QUpdateStock:
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
