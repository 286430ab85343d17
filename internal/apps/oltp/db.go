package oltp

import "repro/internal/kernel"

// The database tier: a small but genuine storage engine in the shape of
// the DVDStore schema — products searchable by category and customers
// with their order history. Rows keep only the columns a query reads; a
// login's credential check is a charged cost. Query execution does real
// index work on the in-memory structures and charges one buffer-pool
// page touch per row it visits. The paper measures after a 2-minute
// warmup (§7.4) with a buffer pool that holds the whole store, so every
// page access is a hit; the on-disk configuration differs from tmpfs
// only in committing orders through synchronous log writes.

// Product is one row of the products table.
type Product struct {
	ID       int
	Category int
	Price    int // cents
	Stock    int
}

// Customer is one row of the customers table.
type Customer struct {
	ID     int
	Orders int // order lines placed; a history query reads only the count
}

// DB is the database engine. Tables are dense slices indexed by row id.
type DB struct {
	products   []Product
	byCategory [][]int // product ids per category
	customers  []Customer
	nextOrder  int

	disk *Disk
	// inMem marks the tmpfs configuration: no synchronous log writes.
	inMem bool

	prm *Params
}

// NewDB populates the store with nProducts across nCategories and
// nCustomers, like DVDStore's load phase.
func NewDB(m *kernel.Machine, prm *Params, inMem bool) *DB {
	db := &DB{
		products:   make([]Product, prm.Products),
		byCategory: make([][]int, prm.Categories),
		customers:  make([]Customer, prm.Customers),
		disk:       &Disk{m: m},
		inMem:      inMem,
		prm:        prm,
	}
	for i := range db.products {
		p := &db.products[i]
		*p = Product{ID: i, Category: i % prm.Categories, Price: 999 + (i%40)*100, Stock: 100}
		db.byCategory[p.Category] = append(db.byCategory[p.Category], i)
	}
	for i := range db.customers {
		db.customers[i].ID = i
	}
	return db
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
		n := min(10, len(db.byCategory[q.Key%len(db.byCategory)]))
		for i := 0; i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 120}
	case QGetProduct:
		p := &db.products[q.Key%len(db.products)]
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 160, Row: p.ID}
	case QLogin:
		c := &db.customers[q.Key%len(db.customers)]
		touchPage(t)
		t.ExecUser(prm.DBAuthCost) // password hash check
		return QueryResult{Rows: 1, Bytes: 96, Row: c.ID}
	case QOrderHistory:
		n := min(5, db.customers[q.Key%len(db.customers)].Orders)
		for i := 0; i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 140}
	case QAddOrderLine:
		db.nextOrder++
		db.customers[q.Key%len(db.customers)].Orders++
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 32, Row: db.nextOrder}
	case QUpdateStock:
		if p := &db.products[q.Key%len(db.products)]; p.Stock > 0 {
			p.Stock--
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
