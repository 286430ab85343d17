package oltp

import (
	"fmt"

	"repro/internal/kernel"
)

// Stack wires the three tiers together over whatever transports the
// configuration selects. The handler methods are the tier application
// logic and are identical in every configuration — exactly like the
// paper's Ideal setup, whose "core implementation is thus identical to
// the baseline, but ... stripped from unnecessary concurrency across
// processes, IPC calls and the glue code needed to manage IPC" (§7.4).
type Stack struct {
	Prm *Params
	DB  *DB

	// PHPT carries web->php calls; DBT carries php->db calls.
	PHPT Transport
	DBT  Transport

	calls uint64 // cross-tier calls made, for the §7.5 calls-per-operation accounting
}

// call is mustCall over one of the stack's transports, counted.
func (s *Stack) call(tr Transport, t *kernel.Thread, op string, payload any, reqBytes int) any {
	s.calls++
	return mustCall(tr, t, op, payload, reqBytes)
}

// DBHandler is the database tier's request entry: execute a query or
// fetch a result set. Both ops take the request's *dbCall slot: exec
// writes the result into it and fetch reads it, and both return the
// same pointer, so the result crosses the transport unboxed.
//
//dipcvet:noalloc
func (s *Stack) DBHandler(t *kernel.Thread, op string, payload any) (any, int) {
	c := payload.(*dbCall)
	switch op {
	case "exec":
		c.R = s.DB.Exec(t, c.Q)
	case "fetch":
		t.ExecUser(s.Prm.DBFetchCost)
	default:
		panicUnknownOp("db", op)
	}
	return c, maxInt(64, int(c.R.Bytes))
}

// PHPHandler is the interpreter tier's request entry: FastCGI-style
// begin/run/end. run interprets the page script, issuing exec+fetch
// pairs against the database for every query in the operation.
//
//dipcvet:noalloc
func (s *Stack) PHPHandler(t *kernel.Thread, op string, payload any) (any, int) {
	switch op {
	case "begin":
		t.ExecUser(s.Prm.PHPBase / 16) // request setup, env parsing
		return nil, 64
	case "params":
		t.ExecUser(s.Prm.PHPBase / 24) // FastCGI params records
		return nil, 64
	case "stdout":
		t.ExecUser(s.Prm.PHPBase / 24) // one response chunk flush
		return nil, s.Prm.RespWebPHP / 2
	case "run":
		req := payload.(*Operation)
		t.ExecUser(s.Prm.PHPBase)
		for i := range req.Queries {
			c := &req.Queries[i]
			t.ExecUser(s.Prm.PHPPerQuery)
			s.call(s.DBT, t, "exec", c, s.Prm.ReqQuery)
			// Multi-row results take extra cursor fetches.
			fetches := 1
			if c.R.Rows > 4 {
				fetches = 2
			}
			for f := 0; f < fetches; f++ {
				s.call(s.DBT, t, "fetch", c, 64)
			}
		}
		return nil, s.Prm.RespWebPHP
	case "end":
		t.ExecUser(s.Prm.PHPBase / 32) // request teardown
		return nil, 64
	default:
		panicUnknownOp("php", op)
		return nil, 0
	}
}

// panicUnknownOp reports a call to an op the tier does not export: a
// wiring bug, not an outcome.
func panicUnknownOp(tier, op string) {
	panic(fmt.Sprintf("oltp: unknown %s op %q", tier, op))
}

// WebHandle serves one client request on a web worker thread: parse,
// drive the interpreter through the FastCGI-ish begin/run/end exchange,
// assemble the response.
//
//dipcvet:noalloc
func (s *Stack) WebHandle(t *kernel.Thread, req *request) {
	t.ExecUser(s.Prm.WebParse)
	// The FastCGI exchange: begin-request, params records, the script
	// body, streamed stdout chunks, end-request.
	s.call(s.PHPT, t, "begin", nil, 256)
	s.call(s.PHPT, t, "params", nil, 512)
	s.call(s.PHPT, t, "run", req.op, s.Prm.ReqWebPHP)
	s.call(s.PHPT, t, "stdout", nil, 64)
	s.call(s.PHPT, t, "stdout", nil, 64)
	s.call(s.PHPT, t, "end", nil, 64)
	t.ExecUser(s.Prm.WebRespond)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
