//go:build go1.23

package sim

import "iter"

// newCoro starts body as a coroutine that has not yet run. next runs it
// until it yields or returns (ok is false once it has returned); stop
// makes a pending yield return false and waits for body to return.
// Switching costs one runtime.coroswitch, not a trip through the
// scheduler.
//
// iter.Pull needs the Go 1.23 standard library while the module's
// language version stays at go1.21 (a newer go.mod line would break the
// nested perfbench module's build), so this file carries the build
// constraint that raises its own language version.
func newCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
