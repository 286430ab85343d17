package codoms

import "fmt"

// DCS is the per-thread domain capability stack (§4.2): the spill area
// for capabilities, bounded by base and top registers. Unprivileged code
// moves the top only through push/pop; only privileged code (dIPC's
// proxies) may move the base, which is how DCS integrity is enforced
// across cross-process calls (§5.2.3).
type DCS struct {
	slots []Capability // the stack; its length is the top register
	base  int          // lowest index visible to the current domain
	limit int

	// Recycling pools for SwitchTo/RestoreFrom (DCS conf.+integrity runs
	// one switch per proxied call): returned callee stacks are zeroed and
	// reused instead of reallocated, and restore tokens are pooled, so a
	// steady-state High-policy call chain allocates nothing here. Both
	// pools are bounded by the maximum switch nesting depth.
	spares [][]Capability
	tokens []*dcsState
}

// NewDCS returns an empty capability stack that holds at most limit
// entries. Its slots grow as entries are pushed, so a thread that never
// spills a capability holds none.
func NewDCS(limit int) *DCS {
	if limit <= 0 {
		limit = 256
	}
	return &DCS{limit: limit}
}

// Push spills a capability. It fails when the stack is full.
func (d *DCS) Push(c Capability) error {
	if len(d.slots) >= d.limit {
		return fmt.Errorf("codoms: DCS overflow (limit %d)", d.limit)
	}
	d.slots = append(d.slots, c)
	return nil
}

// Pop reloads the most recently pushed capability. It fails when the
// visible region is empty, so a callee can never pop its caller's
// entries once the proxy has raised the base.
func (d *DCS) Pop() (Capability, error) {
	top := len(d.slots) - 1
	if top < d.base {
		return Capability{}, fmt.Errorf("codoms: DCS underflow (base %d)", d.base)
	}
	c := d.slots[top]
	d.slots[top] = Capability{}
	d.slots = d.slots[:top]
	return c, nil
}

// Depth returns the number of entries visible to the current domain.
func (d *DCS) Depth() int { return len(d.slots) - d.base }

// Top returns the absolute top index (used by proxies to compute the new
// base that hides all but the argument entries).
func (d *DCS) Top() int { return len(d.slots) }

// SetBase moves the base register. This models a privileged operation:
// only dIPC proxies call it (DCS integrity, §5.2.3). It returns the
// previous base so the proxy can restore it on return.
func (d *DCS) SetBase(n int) (old int, err error) {
	if n < 0 || n > len(d.slots) {
		return d.base, fmt.Errorf("codoms: DCS base %d out of range [0,%d]", n, len(d.slots))
	}
	old = d.base
	d.base = n
	return old, nil
}

// dcsState captures the caller's stack and base for the DCS
// confidentiality+integrity property, where the proxy switches to a
// separate stack and back.
type dcsState struct {
	slots []Capability
	base  int
	// partial marks a token whose restore overflowed while copying
	// results back: the active stack is then the caller's own, which a
	// re-restore must neither zero nor pool.
	partial bool
}

// SwitchTo replaces the stack contents with a fresh stack that holds
// only the nargs topmost entries of the old stack (the capability
// arguments of the call, copied "according to the signature", §5.2.3).
// It returns a token for RestoreFrom.
func (d *DCS) SwitchTo(nargs int) (restore any, err error) {
	if nargs < 0 || nargs > d.Depth() {
		return nil, fmt.Errorf("codoms: DCS switch with %d args, have %d visible", nargs, d.Depth())
	}
	var tok *dcsState
	if n := len(d.tokens); n > 0 {
		tok = d.tokens[n-1]
		d.tokens = d.tokens[:n-1]
	} else {
		tok = new(dcsState)
	}
	// The argument entries move to the callee's stack: they are consumed
	// from the caller's, exactly as a callee popping them from a shared
	// stack would.
	top := len(d.slots) - nargs
	*tok = dcsState{slots: d.slots[:top], base: d.base}
	var fresh []Capability
	if n := len(d.spares); n > 0 {
		fresh = d.spares[n-1]
		d.spares = d.spares[:n-1]
	}
	d.slots = append(fresh, d.slots[top:]...)
	d.base = 0
	return tok, nil
}

// RestoreFrom reinstates the stack saved by SwitchTo, copying back the
// nres topmost entries of the callee's stack as results. The callee's
// stack and the token are recycled for the next SwitchTo.
func (d *DCS) RestoreFrom(restore any, nres int) error {
	tok, ok := restore.(*dcsState)
	if !ok {
		return fmt.Errorf("codoms: bad DCS restore token")
	}
	if nres < 0 || nres > d.Depth() {
		return fmt.Errorf("codoms: DCS restore with %d results, have %d", nres, d.Depth())
	}
	// A re-restore of a token whose first restore failed mid-copy (Push
	// overflow followed by fault unwinding) finds the caller's stack
	// active; that "callee" must not be zeroed or pooled.
	callee, owned := d.slots, !tok.partial
	d.slots, d.base = tok.slots, tok.base
	for _, c := range callee[len(callee)-nres:] {
		if err := d.Push(c); err != nil {
			// Token stays live: fault unwinding re-restores through it.
			tok.partial = true
			return err
		}
	}
	*tok = dcsState{}
	d.tokens = append(d.tokens, tok)
	if owned && cap(callee) > 0 {
		clear(callee)
		d.spares = append(d.spares, callee[:0])
	}
	return nil
}
