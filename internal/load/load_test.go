package load

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// replyAfter returns an Issue that completes every request with class
// after d, the way a system under test schedules its completion word.
func replyAfter(eng *sim.Engine, d sim.Time, class uint64) func(uint64, func(uint64)) {
	return func(id uint64, done func(uint64)) { eng.AtU64(d, done, id<<2|class) }
}

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
			Arrivals: NewPoisson(9, sim.Micros(200)),
			Sessions: 64,
			Requests: 3,
			Deadline: sim.Millis(1),
			Window:   stats.Window{Start: sim.Millis(1), End: sim.Millis(21)},
			Issue:    replyAfter(eng, latency, ClassOK),
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
		Arrivals: NewPoisson(11, sim.Micros(500)),
		Sessions: 32,
		Requests: 4,
		Deadline: sim.Micros(50),
		Window:   stats.Window{End: sim.Millis(10)},
		Issue:    replyAfter(eng, sim.Millis(5), ClassOK), // far past the deadline
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
		Arrivals: NewPoisson(13, sim.Micros(100)),
		Sessions: 1,
		Requests: 1,
		Window:   stats.Window{End: sim.Millis(5)},
		// Never completes inside the window: the slot stays busy.
		Issue: replyAfter(eng, sim.Millis(50), ClassOK),
	})
	eng.RunUntil(sim.Millis(5))
	if gen.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", gen.Sessions)
	}
	if gen.Balked == 0 {
		t.Fatalf("no balked arrivals with a saturated one-slot pool")
	}
}

// Rejections surface in the Rejected counter, other failures in
// Faults.
func TestGeneratorErrorClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	n := 0
	gen := Start(eng, Config{
		Arrivals: NewPoisson(17, sim.Micros(100)),
		Sessions: 16,
		Requests: 1,
		Window:   stats.Window{End: sim.Millis(2)},
		Issue: func(id uint64, done func(uint64)) {
			n++
			class := uint64(ClassFailed)
			if n%2 == 0 {
				class = ClassRejected
			}
			eng.AtU64(0, done, id<<2|class)
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

// Sessions are created only when an arrival finds none idle, so a run
// pays for its peak concurrency, not for Config.Sessions: a window too
// short for any arrival creates none, a light load creates exactly as
// many as were ever busy at once, and an overload stops at the cap and
// balks the rest.
func TestGeneratorSpawnsSessionsOnDemand(t *testing.T) {
	gap, latency := sim.Micros(100), sim.Micros(250)
	start := func(sessions int, end, latency sim.Time) *Generator {
		eng := sim.NewEngine(1)
		t.Cleanup(eng.Close)
		gen := Start(eng, Config{
			Arrivals: NewPoisson(21, gap),
			Sessions: sessions,
			Requests: 1,
			Window:   stats.Window{End: end},
			Issue:    replyAfter(eng, latency, ClassOK),
		})
		eng.RunUntil(sim.Millis(100))
		return gen
	}

	t.Run("empty-window", func(t *testing.T) {
		if gen := start(512, 1, latency); gen.Created != 0 || gen.Sessions != 0 {
			t.Fatalf("a 1ns window created %d sessions and began %d, want 0", gen.Created, gen.Sessions)
		}
	})

	t.Run("peak-concurrency", func(t *testing.T) {
		end := sim.Millis(20)
		gen := start(512, end, latency)
		// Replay the arrivals: a client is busy from its arrival for
		// the backend latency, so the peak is the most arrivals that
		// fall within one latency of each other.
		a := NewPoisson(21, gap)
		var arrivals []sim.Time
		for at := a.Next(); at <= end; at += a.Next() {
			arrivals = append(arrivals, at)
		}
		peak := 0
		for k, at := range arrivals {
			busy := 0
			for _, prev := range arrivals[:k+1] {
				if prev+latency > at {
					busy++
				}
			}
			peak = max(peak, busy)
		}
		if peak < 2 {
			t.Fatalf("peak concurrency %d: the load is too light to tell reuse from creation", peak)
		}
		if gen.Created != peak {
			t.Fatalf("created %d sessions, want the peak concurrency %d", gen.Created, peak)
		}
		if gen.Sessions != int64(len(arrivals)) || gen.Balked != 0 {
			t.Fatalf("began %d sessions and balked %d for %d arrivals, want all begun", gen.Sessions, gen.Balked, len(arrivals))
		}
	})

	t.Run("capped", func(t *testing.T) {
		gen := start(2, sim.Millis(5), sim.Millis(50))
		if gen.Created != 2 || gen.Balked == 0 {
			t.Fatalf("created %d sessions and balked %d under overload with Sessions=2, want 2 and > 0",
				gen.Created, gen.Balked)
		}
	})
}

// TestGeneratorSteadyStateAllocs: once the generator has created its
// peak of sessions, a request allocates nothing — not the arrival, the
// session's deadline and completion callbacks, nor the free list.
func TestGeneratorSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	t.Cleanup(eng.Close)
	gen := Start(eng, Config{
		Arrivals: NewPoisson(23, sim.Micros(20)),
		Sessions: 8, // below the peak, so warm-up reaches the cap
		Requests: 3,
		Deadline: sim.Micros(100),
		Window:   stats.Window{End: sim.Second},
		// One request in eight outlives its deadline.
		Issue: func(id uint64, done func(uint64)) {
			d := sim.Micros(30)
			if id%8 == 0 {
				d = sim.Micros(150)
			}
			eng.AtU64(d, done, id<<2|ClassOK)
		},
	})
	// One P and no GC, so MemStats sees only the simulation.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng.RunUntil(sim.Millis(100))
	created, offered, timeouts := gen.Created, gen.Offered, gen.Acc.Rel.Timeouts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng.RunUntil(sim.Millis(200))
	runtime.ReadMemStats(&after)
	if created != 8 || gen.Balked == 0 {
		t.Fatalf("%d sessions created, %d arrivals balked; want the cap of 8 reached", created, gen.Balked)
	}
	reqs := gen.Offered - offered
	if reqs < 5000 || gen.Acc.Rel.Timeouts == timeouts {
		t.Fatalf("%d requests and %d timeouts in the measured window, want >= 5000 and some", reqs, gen.Acc.Rel.Timeouts-timeouts)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("steady-state generator allocates %.3f objects/request (%d over %d requests), want 0",
			float64(n)/float64(reqs), n, reqs)
	}
}
