package main

import (
	"runtime"
	"time"

	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// A probe times direct calls into one layer's public functions. Each
// returns the host nanoseconds of n operations; runProbe warms it up
// once and reports the median per-operation cost of several batches.
type probe struct {
	name  string
	n     int
	procs int // GOMAXPROCS while the probe runs
	run   func(n int) time.Duration
}

var probes = []probe{
	{"sim.ns_per_wake", 200_000, 1, probeWake},
	{"sim.ns_per_sleep", 500_000, 1, probeSleep},
	{"sim.ns_per_link_msg", 50_000, 2, probeLink},
	{"core.ns_per_call", 20_000, 1, func(n int) time.Duration { return probeCrossCall(1, n) }},
	{"core.ns_per_call_deep", 5_000, 1, func(n int) time.Duration { return probeCrossCall(8, n) }},
	{"oltp.ns_per_retrier_call", 200_000, 1, probeRetrier},
	{"oltp.ns_per_router_call", 200_000, 1, probeRouter},
	{"stats.ns_per_record", 2_000_000, 1, probeRecord},
}

const probeBatches = 5

func runProbe(p probe) float64 {
	prev := runtime.GOMAXPROCS(p.procs)
	defer runtime.GOMAXPROCS(prev)
	p.run(p.n / 4) // warm-up
	per := make([]float64, probeBatches)
	for i := range per {
		runtime.GC()
		per[i] = float64(p.run(p.n).Nanoseconds()) / float64(p.n)
	}
	return median(per)
}

// probeWake: two procs wake each other through WaitQueues; one
// operation is one wake-and-dispatch.
func probeWake(n int) time.Duration {
	e := sim.NewEngine(1)
	var q1, q2 sim.WaitQueue
	rounds := n / 2
	e.Spawn("a", 0, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			q1.Wait(p)
			q2.WakeOne(0, nil)
		}
	})
	e.Spawn("b", sim.Nanosecond, func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			q1.WakeOne(0, nil)
			q2.Wait(p)
		}
	})
	t0 := time.Now()
	mustRun(e.Run())
	return time.Since(t0)
}

// probeSleep: one proc sleeping alone, the self-wake fast path.
func probeSleep(n int) time.Duration {
	e := sim.NewEngine(1)
	e.Spawn("sleeper", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	t0 := time.Now()
	mustRun(e.Run())
	return time.Since(t0)
}

// probeLink: a message bounces between two shards over a pair of links;
// one operation is one cross-shard delivery.
func probeLink(n int) time.Duration {
	const lookahead = sim.Microsecond
	c := sim.NewCluster(1, 2)
	ab := c.Connect(c.Shard(0), c.Shard(1), lookahead)
	ba := c.Connect(c.Shard(1), c.Shard(0), lookahead)
	ab.SetHandler(func(v uint64) { ba.SendU64(lookahead, v+1) })
	ba.SetHandler(func(v uint64) {
		if v+1 < uint64(n) {
			ab.SendU64(lookahead, v+1)
		}
	})
	c.Shard(0).Engine().At(0, func() { ab.SendU64(lookahead, 0) })
	t0 := time.Now()
	mustRun(c.Run())
	return time.Since(t0)
}

// probeCrossCall: dIPC proxy calls down a chain of depth processes. The
// chain is built twice, for n and 2n calls, so the difference is the
// cost of n calls without the set-up.
func probeCrossCall(depth, n int) time.Duration {
	t0 := time.Now()
	experiments.MeasureCrossCallChain(depth, n, false)
	t1 := time.Now()
	experiments.MeasureCrossCallChain(depth, 2*n, false)
	d := time.Since(t1) - t1.Sub(t0)
	if d < 0 {
		d = 0
	}
	return d
}

// onThread runs fn on a simulated thread of a one-CPU machine and returns
// the host time fn took.
func onThread(fn func(t *kernel.Thread)) time.Duration {
	e := sim.NewEngine(1)
	m := kernel.NewMachine(e, cost.Default(), 1)
	var d time.Duration
	m.Spawn(m.NewProcess("probe"), "probe", nil, func(t *kernel.Thread) {
		t0 := time.Now()
		fn(t)
		d = time.Since(t0)
	})
	mustRun(e.Run())
	return d
}

func echo(_ *kernel.Thread, _ string, payload any) (any, int) { return payload, 0 }

// probeRetrier: fault-free calls through a Retrier over a DirectTransport.
func probeRetrier(n int) time.Duration {
	tr := &oltp.Retrier{
		Inner:  &oltp.DirectTransport{H: echo},
		Policy: faults.RetryPolicy{Deadline: sim.Micros(500)},
		Rel:    &stats.Reliability{},
	}
	return onThread(func(t *kernel.Thread) {
		for i := 0; i < n; i++ {
			if _, err := tr.TryCall(t, "op", nil, 64); err != nil {
				panic(err)
			}
		}
	})
}

// probeRouter: round-robin calls through a Router over two replicas.
func probeRouter(n int) time.Duration {
	rt := oltp.NewRouter([]oltp.Transport{&oltp.DirectTransport{H: echo}, &oltp.DirectTransport{H: echo}},
		oltp.PolicyRoundRobin, oltp.NewReplicaHealth(2), nil)
	return onThread(func(t *kernel.Thread) {
		for i := 0; i < n; i++ {
			if _, err := rt.TryCall(t, "op", nil, 64); err != nil {
				panic(err)
			}
		}
	})
}

var histSink int64

// probeRecord: latency histogram records over a spread of magnitudes.
func probeRecord(n int) time.Duration {
	var h stats.Histogram
	rng := sim.NewRand(1)
	vals := make([]sim.Time, 1024)
	for i := range vals {
		vals[i] = sim.Time(rng.Intn(1 << 24))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Record(vals[i&1023])
	}
	d := time.Since(t0)
	histSink += h.Count()
	return d
}

func mustRun(err error) {
	if err != nil {
		panic(err)
	}
}
