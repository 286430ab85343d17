package codoms

import "fmt"

// DCS is the per-thread domain capability stack (§4.2): the spill area
// for capabilities, bounded by base and top registers. Unprivileged code
// moves the top only through push/pop; only privileged code (dIPC's
// proxies) may move the base, which is how DCS integrity is enforced
// across cross-process calls (§5.2.3).
type DCS struct {
	slots []Capability
	base  int // lowest index visible to the current domain
	top   int // next free slot
	limit int

	// Recycling pools for SwitchTo/RestoreFrom (DCS conf.+integrity runs
	// one switch per proxied call): returned callee stacks are zeroed and
	// reused instead of reallocated, and restore tokens are pooled, so a
	// steady-state High-policy call chain allocates nothing here. Both
	// pools are bounded by the maximum switch nesting depth.
	spares [][]Capability
	tokens []*dcsState
}

// NewDCS returns a capability stack with room for limit entries.
func NewDCS(limit int) *DCS {
	if limit <= 0 {
		limit = 256
	}
	return &DCS{slots: make([]Capability, limit), limit: limit}
}

// Push spills a capability. It fails when the stack is full.
func (d *DCS) Push(c Capability) error {
	if d.top >= d.limit {
		return fmt.Errorf("codoms: DCS overflow (limit %d)", d.limit)
	}
	d.slots[d.top] = c
	d.top++
	return nil
}

// Pop reloads the most recently pushed capability. It fails when the
// visible region is empty, so a callee can never pop its caller's
// entries once the proxy has raised the base.
func (d *DCS) Pop() (Capability, error) {
	if d.top <= d.base {
		return Capability{}, fmt.Errorf("codoms: DCS underflow (base %d)", d.base)
	}
	d.top--
	c := d.slots[d.top]
	d.slots[d.top] = Capability{}
	return c, nil
}

// Depth returns the number of entries visible to the current domain.
func (d *DCS) Depth() int { return d.top - d.base }

// Top returns the absolute top index (used by proxies to compute the new
// base that hides all but the argument entries).
func (d *DCS) Top() int { return d.top }

// SetBase moves the base register. This models a privileged operation:
// only dIPC proxies call it (DCS integrity, §5.2.3). It returns the
// previous base so the proxy can restore it on return.
func (d *DCS) SetBase(n int) (old int, err error) {
	if n < 0 || n > d.top {
		return d.base, fmt.Errorf("codoms: DCS base %d out of range [0,%d]", n, d.top)
	}
	old = d.base
	d.base = n
	return old, nil
}

// restoreState captures base/top for the DCS confidentiality+integrity
// property, where the proxy switches to a separate stack and back.
type dcsState struct {
	slots []Capability
	base  int
	top   int
}

// SwitchTo replaces the stack contents with a fresh empty stack that
// contains only the nargs topmost entries of the old stack (the
// capability arguments of the call, copied "according to the signature",
// §5.2.3). It returns a token for RestoreFrom.
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
	*tok = dcsState{slots: d.slots, base: d.base, top: d.top - nargs}
	var fresh []Capability
	if n := len(d.spares); n > 0 {
		fresh = d.spares[n-1]
		d.spares = d.spares[:n-1]
	} else {
		fresh = make([]Capability, d.limit)
	}
	copy(fresh, d.slots[d.top-nargs:d.top])
	d.slots = fresh
	d.base = 0
	d.top = nargs
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
	callee, calleeTop := d.slots, d.top
	// A re-restore of a token whose first restore failed mid-copy (Push
	// overflow followed by fault unwinding) arrives with the token
	// aliasing the active stack; the "callee" is then the caller's live
	// array and must not be zeroed or pooled.
	aliased := &callee[0] == &tok.slots[0]
	d.slots, d.base, d.top = tok.slots, tok.base, tok.top
	for i := calleeTop - nres; i < calleeTop; i++ {
		if err := d.Push(callee[i]); err != nil {
			// Token stays live: fault unwinding re-restores through it.
			return err
		}
	}
	*tok = dcsState{}
	d.tokens = append(d.tokens, tok)
	// Zero the used region (slots above the watermark were already
	// zeroed by Pop) and keep the stack as a spare.
	if !aliased && len(callee) == d.limit {
		for i := 0; i < calleeTop; i++ {
			callee[i] = Capability{}
		}
		d.spares = append(d.spares, callee)
	}
	return nil
}
