// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives a set of cooperating simulated threads (Procs), each
// a coroutine, such that exactly one Proc executes at any moment.
// Simulated time is advanced only by the event queue, so runs are exactly
// reproducible: the same program and seed always produce the same event
// order and the same final clock.
//
// All higher layers of the repository (the simulated kernel, the CODOMs
// architecture model, the dIPC runtime and the benchmark applications) are
// built on this package.
package sim

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
//
// Picosecond resolution lets the cost model compose sub-nanosecond
// architectural costs (a function call is 2 ns, a register move a fraction
// of that) without floating-point drift. The int64 range covers about 106
// days of simulated time, far beyond any experiment in this repository.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds returns t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanos builds a Time from a floating-point number of nanoseconds.
// It is the main bridge from the cost model (which is calibrated in
// nanoseconds, the unit the paper reports) into simulated time.
func Nanos(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// Micros builds a Time from a floating-point number of microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// Millis builds a Time from a floating-point number of milliseconds.
func Millis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// String formats the time with an auto-selected unit, e.g. "34ns" or
// "1.66ms". It is used by the report generators.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0"
	case t < Nanosecond && t > -Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second && t > -Second:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}
