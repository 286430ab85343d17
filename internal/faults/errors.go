package faults

import (
	"errors"
	"fmt"
)

// Error is a request-path failure wrapped with where it happened, as in
// "hop2: faults: call deadline exceeded". It takes the place of
// fmt.Errorf("%s: %w") for the errors the hooked call paths return, so
// Class can walk a chain of them with a concrete type switch; errors.Is
// and errors.As still see through it.
type Error struct {
	Msg string // where: a call site, a gateway or breaker verdict
	Err error  // why: usually ErrTimeout, ErrDead or ErrRejected
}

// Error implements error.
func (e *Error) Error() string { return e.Msg + ": " + e.Err.Error() }

// Unwrap exposes the cause for errors.Is chains.
func (e *Error) Unwrap() error { return e.Err }

// RemoteError is an in-band failure traveling up a tier chain as an
// ordinary response payload — the simulation analogue of a 5xx page: the
// transport delivered fine, the tier behind it did not.
type RemoteError struct {
	Tier string // the tier that failed, e.g. "svc3"
	Err  error  // why
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %v", e.Tier, e.Err) }

// Unwrap exposes the cause for errors.Is chains.
func (e *RemoteError) Unwrap() error { return e.Err }

// Class returns the class of a request-path failure: ErrTimeout,
// ErrRejected or ErrDead when err is or wraps that sentinel, nil when it
// wraps none (or is nil). It answers what errors.Is would, but walks
// Error and RemoteError chains with concrete type switches and compares
// the sentinels by identity: errors.Is asserts to interface types, and
// the runtime refills the caches behind such assertions by allocating.
// Only an error of another type takes errors.Is, off the hot path.
//
//dipcvet:noalloc
func Class(err error) error {
	for {
		switch e := err.(type) {
		case *Error:
			err = e.Err
		case *RemoteError:
			err = e.Err
		default:
			switch err {
			case nil, ErrTimeout, ErrRejected, ErrDead:
				return err
			}
			return classOther(err)
		}
	}
}

// classOther is Class for an error of a type this package does not
// build, say a caller's fmt.Errorf("%w") wrapper.
func classOther(err error) error {
	for _, c := range [...]error{ErrTimeout, ErrRejected, ErrDead} {
		if errors.Is(err, c) {
			return c
		}
	}
	return nil
}
