package faults

import (
	"errors"
	"fmt"
	"testing"
)

// TestClassMatchesErrorsIs: Class names the sentinel errors.Is finds, for
// the package's wrappers, foreign wrappers and mixes of the two, and
// wrapping keeps the message fmt.Errorf("%s: %w") would give.
func TestClassMatchesErrorsIs(t *testing.T) {
	other := errors.New("tier fault")
	drop := &Error{Msg: "hop2", Err: ErrTimeout}
	shed := &Error{Msg: "oltp: admission queue full", Err: ErrRejected}
	cases := []error{
		nil, other, ErrTimeout, ErrRejected, ErrDead,
		drop, shed,
		&Error{Msg: "oltp: dIPC call \"hop\"", Err: other},
		&RemoteError{Tier: "svc2", Err: drop},
		&RemoteError{Tier: "svc1", Err: &RemoteError{Tier: "svc2", Err: shed}},
		&RemoteError{Tier: "svc1", Err: other},
		fmt.Errorf("gateway: %w", ErrRejected),
		&RemoteError{Tier: "svc1", Err: fmt.Errorf("wrapped: %w", drop)},
		fmt.Errorf("wrapped: %w", &RemoteError{Tier: "svc2", Err: &Error{Msg: "connect", Err: ErrDead}}),
	}
	for _, err := range cases {
		var want error
		for _, c := range []error{ErrTimeout, ErrRejected, ErrDead} {
			if errors.Is(err, c) {
				want = c
				break
			}
		}
		if got := Class(err); got != want {
			t.Errorf("Class(%v) = %v, want %v", err, got, want)
		}
	}
	if got, want := drop.Error(), fmt.Errorf("hop2: %w", ErrTimeout).Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

// TestClassAllocatesNothing: classifying the request path's chains is a
// walk of concrete types and identity compares.
func TestClassAllocatesNothing(t *testing.T) {
	err := error(&RemoteError{Tier: "svc1", Err: &RemoteError{Tier: "svc2", Err: &Error{Msg: "hop3", Err: ErrTimeout}}})
	if n := testing.AllocsPerRun(1000, func() {
		if Class(err) != ErrTimeout {
			t.Fatal("misclassified")
		}
	}); n != 0 {
		t.Errorf("Class allocates %.1f objects per call, want 0", n)
	}
}
