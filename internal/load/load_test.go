package load

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// countArrivals drains the process over a horizon and returns how many
// arrivals land in it.
func countArrivals(a *Arrivals, horizon sim.Time) int {
	n := 0
	var now sim.Time
	for now < horizon {
		now += a.Next()
		if now < horizon {
			n++
		}
	}
	return n
}

// A Poisson source's realized rate tracks the configured mean.
func TestPoissonRate(t *testing.T) {
	mean := sim.Micros(100)
	got := countArrivals(NewPoisson(1, mean), sim.Second)
	want := 10000 // 1s / 100us
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("poisson arrivals = %d over 1s, want ~%d", got, want)
	}
}

// The same seed reproduces the identical arrival sequence; different
// seeds diverge (per-stream RNG discipline).
func TestArrivalsDeterministic(t *testing.T) {
	seq := func(seed uint64) []sim.Time {
		a := NewPoisson(seed, sim.Micros(50))
		var out []sim.Time
		var now sim.Time
		for i := 0; i < 200; i++ {
			now += a.Next()
			out = append(out, now)
		}
		return out
	}
	a, b, c := seq(7), seq(7), seq(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different arrival sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical arrival sequences")
	}
}

// End-to-end generator run against an instant-success backend: offered
// requests all complete, percentiles come out of the histogram, and the
// run is deterministic.
func TestGeneratorBasic(t *testing.T) {
	run := func() (*Generator, sim.Time) {
		eng := sim.NewEngine(1)
		var latency sim.Time = sim.Micros(30)
		gen := Start(eng, Config{
			Arrivals:     NewPoisson(9, sim.Micros(200)),
			Sessions:     64,
			Requests:     3,
			Deadline:     sim.Millis(1),
			MeasureStart: sim.Millis(1),
			MeasureEnd:   sim.Millis(21),
			Issue: func(p *sim.Proc, w sim.Waiter) {
				w.Wake(latency, nil)
			},
		})
		eng.RunUntil(sim.Millis(21))
		return gen, latency
	}
	gen, latency := run()
	if gen.Acc.Rel.OpsOK == 0 {
		t.Fatalf("no successful ops")
	}
	if gen.Acc.Rel.OpsFailed != 0 {
		t.Fatalf("%d failed ops against an instant backend", gen.Acc.Rel.OpsFailed)
	}
	if gen.Balked != 0 {
		t.Fatalf("%d balked arrivals with an oversized pool", gen.Balked)
	}
	if p99 := gen.Acc.Hist.P99(); p99 < latency || p99 > latency+latency/histErrDen {
		t.Fatalf("P99 = %v, want ~%v", p99, latency)
	}
	gen2, _ := run()
	if gen.Acc.Rel != gen2.Acc.Rel || gen.Offered != gen2.Offered || gen.Sessions != gen2.Sessions {
		t.Fatalf("generator runs diverged: %+v vs %+v", gen.Acc.Rel, gen2.Acc.Rel)
	}
}

// histErrDen mirrors the histogram's documented relative error bound
// (1/32) for test assertions.
const histErrDen = 32

// A backend slower than the deadline: every request times out, the
// session abandons, and the timeout counter carries the loss.
func TestGeneratorDeadline(t *testing.T) {
	eng := sim.NewEngine(1)
	gen := Start(eng, Config{
		Arrivals:     NewPoisson(11, sim.Micros(500)),
		Sessions:     32,
		Requests:     4,
		Deadline:     sim.Micros(50),
		MeasureStart: 0,
		MeasureEnd:   sim.Millis(10),
		Issue: func(p *sim.Proc, w sim.Waiter) {
			w.Wake(sim.Millis(5), nil) // far past the deadline
		},
	})
	eng.RunUntil(sim.Millis(10))
	if gen.Acc.Rel.OpsOK != 0 {
		t.Fatalf("%d ops succeeded against a backend slower than the deadline", gen.Acc.Rel.OpsOK)
	}
	if gen.Acc.Rel.Timeouts == 0 || gen.Acc.Rel.Timeouts != gen.Acc.Rel.OpsFailed {
		t.Fatalf("timeouts %d / failed %d; every failure should be a timeout", gen.Acc.Rel.Timeouts, gen.Acc.Rel.OpsFailed)
	}
	// Abandonment: each session issues exactly one request per arrival.
	if gen.Offered != gen.Sessions {
		t.Fatalf("offered %d != sessions %d; timed-out clients must abandon their burst", gen.Offered, gen.Sessions)
	}
}

// Pool exhaustion balks arrivals instead of queueing them: with one
// slot and a backend that never answers inside the window, every later
// arrival is lost.
func TestGeneratorBalks(t *testing.T) {
	eng := sim.NewEngine(1)
	gen := Start(eng, Config{
		Arrivals:     NewPoisson(13, sim.Micros(100)),
		Sessions:     1,
		Requests:     1,
		MeasureStart: 0,
		MeasureEnd:   sim.Millis(5),
		Issue: func(p *sim.Proc, w sim.Waiter) {
			// Never wakes inside the window: the slot stays busy.
			w.Wake(sim.Millis(50), nil)
		},
	})
	eng.RunUntil(sim.Millis(5))
	if gen.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", gen.Sessions)
	}
	if gen.Balked == 0 {
		t.Fatalf("no balked arrivals with a saturated one-slot pool")
	}
}

// errBackend stands in for any failure that is not a shed.
var errBackend = errors.New("backend failure")

// Rejection errors surface in the Rejected counter, other errors in
// Faults.
func TestGeneratorErrorClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	gen := Start(eng, Config{
		Arrivals:     NewPoisson(17, sim.Micros(100)),
		Sessions:     16,
		Requests:     1,
		MeasureStart: 0,
		MeasureEnd:   sim.Millis(2),
		Issue: func(p *sim.Proc, w sim.Waiter) {
			n++
			if n%2 == 0 {
				w.Wake(0, fmt.Errorf("gateway: %w", faults.ErrRejected))
			} else {
				w.Wake(0, errBackend)
			}
		},
	})
	eng.RunUntil(sim.Millis(2))
	if gen.Acc.Rel.Rejected == 0 || gen.Acc.Rel.Faults == 0 {
		t.Fatalf("classification lost a class: %+v", gen.Acc.Rel)
	}
	if gen.Acc.Rel.Rejected+gen.Acc.Rel.Faults != gen.Acc.Rel.OpsFailed {
		t.Fatalf("rejected %d + faults %d != failed %d", gen.Acc.Rel.Rejected, gen.Acc.Rel.Faults, gen.Acc.Rel.OpsFailed)
	}
}
