package oltp

import "repro/internal/sim"

// Params centralizes the workload calibration: dataset sizes, per-tier
// CPU costs and protocol message sizes. The defaults approximate the
// paper's DVDStore run (1 GB input, §7.4) scaled so that the Linux
// configuration lands near the paper's ~1.9× ideal-vs-Linux gap (Fig. 1)
// and its per-operation cross-domain call count is in the hundreds
// (§7.5 reports 211 for the in-memory 256-thread configuration). The
// buffer pool has no size parameter: it holds the whole store, so every
// page access is a warm hit (see db.go).
type Params struct {
	// Dataset.
	Products   int
	Categories int
	Customers  int

	// Database engine costs.
	DBExecCost  sim.Time // parse/plan/execute one query
	DBFetchCost sim.Time // cursor fetch of a result set
	DBAuthCost  sim.Time // password check on login

	// Interpreter costs.
	PHPBase     sim.Time // per-request bytecode startup (with cache)
	PHPPerQuery sim.Time // script work between queries

	// Web tier costs.
	WebParse   sim.Time // HTTP parse, routing
	WebRespond sim.Time // response assembly, headers

	// Socket-transport protocol costs and sizes.
	ProtoMarshal sim.Time // FastCGI / wire-protocol (de)marshal per side
	ReqWebPHP    int      // web->php request bytes
	RespWebPHP   int      // php->web response bytes
	ReqQuery     int      // php->db query bytes
	IngressReq   int      // client request bytes
	IngressResp  int      // response page bytes

	// Operation mix weights (percent).
	BrowseWeight, LoginWeight, PurchaseWeight int
	// Queries per operation kind.
	BrowseGets    int // product detail queries per browse
	LoginHistory  int // history queries per login
	PurchaseGets  int // product queries per purchase
	PurchaseLines int // order lines per purchase
}

// DefaultParams returns the calibrated workload.
func DefaultParams() *Params {
	return &Params{
		Products:   10000,
		Categories: 16,
		Customers:  2000,

		DBExecCost:  sim.Micros(22),
		DBFetchCost: sim.Micros(5),
		DBAuthCost:  sim.Micros(30),

		PHPBase:     sim.Micros(220),
		PHPPerQuery: sim.Micros(18),

		WebParse:   sim.Micros(70),
		WebRespond: sim.Micros(90),

		ProtoMarshal: sim.Micros(1),
		ReqWebPHP:    1024,
		RespWebPHP:   8192,
		ReqQuery:     160,
		IngressReq:   512,
		IngressResp:  16384,

		BrowseWeight:   50,
		LoginWeight:    20,
		PurchaseWeight: 30,
		BrowseGets:     14,
		LoginHistory:   4,
		PurchaseGets:   8,
		PurchaseLines:  3,
	}
}
