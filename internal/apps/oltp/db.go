package oltp

import "repro/internal/kernel"

// The database tier: a small but genuine storage engine in the shape of
// the DVDStore schema — products searchable by category, customers with
// their order history, and an order log. Rows keep only the columns a
// query reads; a login's credential check is a charged cost. Query
// execution does real index work on the in-memory structures and
// charges one buffer-pool page touch per row it visits. The paper
// measures after a 2-minute warmup (§7.4) with a buffer pool that holds
// the whole store, so every page access is a hit; the on-disk
// configuration differs from tmpfs only in committing orders through
// synchronous log writes.

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
	Orders []int
}

// Order is one row of the orders table.
type Order struct {
	ID       int
	Customer int
	Items    []int
	Total    int
}

// DB is the database engine.
type DB struct {
	products   map[int]*Product
	byCategory map[int][]int
	customers  map[int]*Customer
	orders     map[int]*Order
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
		products:   make(map[int]*Product),
		byCategory: make(map[int][]int),
		customers:  make(map[int]*Customer),
		orders:     make(map[int]*Order),
		disk:       &Disk{m: m},
		inMem:      inMem,
		prm:        prm,
	}
	for i := 0; i < prm.Products; i++ {
		p := &Product{
			ID:       i,
			Category: i % prm.Categories,
			Price:    999 + (i%40)*100,
			Stock:    100,
		}
		db.products[i] = p
		db.byCategory[p.Category] = append(db.byCategory[p.Category], i)
	}
	for i := 0; i < prm.Customers; i++ {
		db.customers[i] = &Customer{ID: i}
	}
	return db
}

// touchPage charges one warm buffer-pool page access.
func touchPage(t *kernel.Thread) { t.ExecUser(t.Machine().P.CacheLineTouch * 4) }

// Query is one database request.
type Query struct {
	Kind     QueryKind
	Key      int // category, customer or product id
	Key2     int // secondary key (e.g. item)
	Quantity int
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

// QueryResult is a query result: a row count and an approximate wire size,
// which the socket transports copy.
type QueryResult struct {
	Rows  int
	Bytes int
	Data  any
}

// Exec runs one query on the calling thread, charging engine CPU time
// and buffer-pool page touches.
func (db *DB) Exec(t *kernel.Thread, q Query) QueryResult {
	prm := db.prm
	t.ExecUser(prm.DBExecCost) // parse/plan/lock/row work
	switch q.Kind {
	case QBrowseCategory:
		ids := db.byCategory[q.Key%max(1, len(db.byCategory))]
		n := min(10, len(ids))
		for i := 0; i < n; i++ {
			touchPage(t)
		}
		return QueryResult{Rows: n, Bytes: n * 120}
	case QGetProduct:
		p, ok := db.products[q.Key%max(1, len(db.products))]
		if !ok {
			return QueryResult{}
		}
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 160, Data: p}
	case QLogin:
		c, ok := db.customers[q.Key%max(1, len(db.customers))]
		if !ok {
			return QueryResult{}
		}
		touchPage(t)
		t.ExecUser(prm.DBAuthCost) // password hash check
		return QueryResult{Rows: 1, Bytes: 96, Data: c}
	case QOrderHistory:
		c := db.customers[q.Key%max(1, len(db.customers))]
		n := 0
		if c != nil {
			n = min(5, len(c.Orders))
			for i := 0; i < n; i++ {
				touchPage(t)
			}
		}
		return QueryResult{Rows: n, Bytes: n * 140}
	case QAddOrderLine:
		db.nextOrder++
		id := db.nextOrder
		o := &Order{ID: id, Customer: q.Key, Items: []int{q.Key2}, Total: q.Quantity}
		db.orders[id] = o
		if c := db.customers[q.Key%max(1, len(db.customers))]; c != nil {
			c.Orders = append(c.Orders, id)
		}
		touchPage(t)
		return QueryResult{Rows: 1, Bytes: 32, Data: id}
	case QUpdateStock:
		p := db.products[q.Key%max(1, len(db.products))]
		if p != nil && p.Stock > 0 {
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
