package main

import (
	"strconv"

	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// modeled is what one transport's run of a workload produced, read from
// the runner's public result fields. It is a pure function of the seed,
// so two runs at one seed must give bit-identical values.
type modeled struct {
	Requests int64   // simulated requests completed or failed
	OK       int64   // of those, the ones that succeeded
	Kops     float64 // successful requests per simulated second, thousands
	LatUS    float64 // central client latency (see workload.latency)
	TailUS   float64 // tail client latency (see workload.latency)
	Samples  int64   // latency samples behind LatUS and TailUS
	// Layers holds the modeled per-layer quantities, keyed by the names
	// of modelLayers; quantities a workload does not exercise are 0.
	Layers map[string]float64
}

// workload is one named input set. run executes one transport at a seed
// with the simulated window the benchmark measures; setup calls the same
// runner with a window too short for any simulated work, so its host time
// is the cost of building machines, processes and dIPC entries.
type workload struct {
	name string
	// procs is GOMAXPROCS while the workload runs: fig8 and openloop
	// drive one engine, replicas a 2-shard cluster.
	procs int
	// window is the simulated measurement window of a measured run.
	window sim.Time
	// latency says what LatUS and TailUS are for this workload.
	latency string
	run     func(seed uint64, dipc bool, shards int, window sim.Time) modeled
	setup   func(seed uint64, dipc bool)
}

var workloads = []*workload{fig8, openloop, replicas}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func mode(dipc bool) oltp.Mode {
	if dipc {
		return oltp.ModeDIPC
	}
	return oltp.ModeLinux
}

func micros(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// fig8 is the paper's in-memory 3-tier OLTP stack (web -> PHP -> DB): a
// closed loop of 16 client connections on 4 simulated CPUs.
var fig8 = &workload{
	name:    "fig8",
	procs:   1,
	window:  sim.Millis(250),
	latency: "mean client latency for both (oltp.Run exposes only the mean)",
	run: func(seed uint64, dipc bool, _ int, window sim.Time) modeled {
		cfg := fig8Config(seed, dipc)
		cfg.Window = window
		r := oltp.Run(cfg)
		m := modeled{
			Requests: int64(r.Ops),
			OK:       int64(r.Ops),
			Kops:     float64(r.Ops) / r.Config.Window.Seconds() / 1e3,
			LatUS:    micros(r.AvgLatency),
			TailUS:   micros(r.AvgLatency),
			Samples:  int64(r.Ops),
			Layers:   blockLayers(r.Breakdown),
		}
		m.Layers["oltp.calls_per_req"] = r.CallsPerOp
		m.Layers["kernel.busy_share_m0"] = busyShare(r.Breakdown)
		return m
	},
	setup: func(seed uint64, dipc bool) {
		cfg := fig8Config(seed, dipc)
		cfg.Warmup, cfg.Window = 1, 1
		oltp.Run(cfg)
	},
}

func fig8Config(seed uint64, dipc bool) oltp.Config {
	return oltp.Config{Mode: mode(dipc), InMemory: true, Threads: 16, CPUs: 4, Seed: seed}
}

// openloop drives a depth-2 tier chain with Poisson sessions at an offered
// 80k requests/s through a drop-tail Gateway, with a Breaker inside a
// Retrier on every hop and a small per-hop drop probability. 80k is past
// Linux's knee and below dIPC's.
var openloop = &workload{
	name:  "openloop",
	procs: 1,
	// 200ms at 80k/s gives Linux about 11k successful requests, enough
	// for ten samples beyond its p999.
	window:  sim.Millis(200),
	latency: "p50 and p999 of successful client requests",
	run: func(seed uint64, dipc bool, _ int, window sim.Time) modeled {
		cfg := openLoopConfig(seed, dipc)
		cfg.Window = window
		r := oltp.RunOpenLoop(cfg)
		m := modeled{
			Requests: r.Rel.Ops(),
			OK:       r.Rel.OpsOK,
			Kops:     r.Goodput / 1e3,
			LatUS:    micros(r.P50),
			TailUS:   micros(r.P999),
			Samples:  r.Rel.OpsOK,
			Layers:   blockLayers(r.Breakdown),
		}
		m.Layers["oltp.retry_amp"] = r.RetryAmp
		m.Layers["oltp.timeouts"] = float64(r.Attempts.Timeouts)
		m.Layers["oltp.rejected"] = float64(r.Rel.Rejected)
		m.Layers["oltp.breaker_trips"] = float64(r.Trips)
		m.Layers["load.offered"] = float64(r.Offered)
		m.Layers["load.balked"] = float64(r.Balked)
		m.Layers["kernel.busy_share_m0"] = busyShare(r.Breakdown)
		return m
	},
	setup: func(seed uint64, dipc bool) {
		cfg := openLoopConfig(seed, dipc)
		cfg.Warmup, cfg.Window = 1, 1
		oltp.RunOpenLoop(cfg)
	},
}

func openLoopConfig(seed uint64, dipc bool) oltp.OpenLoopConfig {
	const requests = 4 // per session
	return oltp.OpenLoopConfig{
		ChainFaultsConfig: oltp.ChainFaultsConfig{
			ChainConfig: oltp.ChainConfig{
				Mode: mode(dipc), Depth: 2, Threads: 8, CPUs: 4, Work: sim.Micros(10),
				Warmup: sim.Millis(5), Seed: seed,
			},
			Plan:  &faults.Plan{Seed: seed, DropProb: 0.002},
			Retry: faults.RetryPolicy{Deadline: sim.Micros(500), MaxRetries: 1, Backoff: sim.Micros(20)},
		},
		MeanGap:  requests * sim.Second / 80_000,
		Sessions: 512,
		Requests: requests,
		Deadline: sim.Millis(2),
		Gateway:  oltp.GatewayConfig{Policy: oltp.AdmitFIFO, Capacity: 64},
		Breaker:  &oltp.BreakerConfig{},
	}
}

// replicas runs two replicas of a depth-2 chain plus a client machine as a
// sharded cluster, with hedged routing, replica 2 slowed 6x, and the
// health detector probing.
var replicas = &workload{
	name:  "replicas",
	procs: 2,
	// Round-robin sends half the operations to the slow replica, so the
	// median sits on the edge between the fast and the slow mode and
	// jumps with the seed; the mean does not.
	latency: "mean and p999 of successful client operations",
	// 700ms gives Linux about 10k operations, enough for ten samples
	// beyond its p999.
	window: sim.Millis(700),
	run: func(seed uint64, dipc bool, shards int, window sim.Time) modeled {
		cfg := replicatedConfig(seed, dipc, shards)
		cfg.Window = window
		r := oltp.RunReplicated(cfg)
		m := modeled{
			Requests: r.Rel.Ops(),
			OK:       r.Rel.OpsOK,
			Kops:     r.Goodput / 1e3,
			LatUS:    micros(r.AvgLatency),
			TailUS:   micros(r.P999),
			Samples:  r.Merged.Hist.Count(),
			Layers:   blockLayers(r.Merged.Breakdown),
		}
		m.Layers["oltp.retry_amp"] = r.RetryAmp
		m.Layers["oltp.timeouts"] = float64(r.Rel.Timeouts)
		m.Layers["oltp.rejected"] = float64(r.Rel.Rejected)
		m.Layers["oltp.breaker_trips"] = float64(r.Trips)
		m.Layers["oltp.hedges"] = float64(r.Rel.Hedges)
		m.Layers["oltp.hedge_win_rate"] = r.Rel.HedgeWinRate()
		m.Layers["oltp.cancelled"] = float64(r.Rel.Cancelled)
		m.Layers["oltp.suspicions"] = float64(r.Rel.Suspicions)
		m.Layers["oltp.false_suspects"] = float64(r.Rel.FalseSuspects)
		for i, acc := range r.PerMachine {
			m.Layers[busyName(i)] = busyShare(acc.Breakdown)
		}
		return m
	},
	setup: func(seed uint64, dipc bool) {
		cfg := replicatedConfig(seed, dipc, 2)
		// RunReplicated requires the warmup to outlast its 1ms boot.
		cfg.Warmup, cfg.Window = sim.Millis(1)+1, 1
		oltp.RunReplicated(cfg)
	},
}

func replicatedConfig(seed uint64, dipc bool, shards int) oltp.ReplicatedConfig {
	return oltp.ReplicatedConfig{
		Mode: mode(dipc), Replicas: 2, Depth: 2, Threads: 2, Clients: 4,
		Work: sim.Micros(10), Warmup: sim.Millis(4), Seed: seed, Shards: shards,
		// Rare per-call slowdowns make the results depend on the seed,
		// which they otherwise would not: the clients' think times never
		// change which replica serves an operation or how long it takes.
		Plan: &faults.Plan{Seed: seed, SlowProb: 0.01, SlowBy: sim.Micros(10)},
		Retry: faults.RetryPolicy{Deadline: sim.Micros(300), MaxRetries: 2,
			Backoff: sim.Micros(20), MaxBackoff: sim.Micros(160)},
		Policy:        oltp.PolicyHedged,
		HedgeFraction: 0.5,
		SlowReplica:   2,
		SlowFactor:    6,
	}
}

func busyName(machine int) string {
	return "kernel.busy_share_m" + strconv.Itoa(machine)
}

// blockLayers groups a breakdown into the paper's Fig. 2 blocks as shares
// of the window, and zero-fills the rest of modelLayers.
func blockLayers(bd stats.Breakdown) map[string]float64 {
	m := make(map[string]float64, len(modelLayers))
	for _, d := range modelLayers {
		m[d.Name] = 0
	}
	total := float64(bd.Total())
	if total == 0 {
		return m
	}
	share := func(blocks ...stats.Block) float64 {
		var sum sim.Time
		for _, b := range blocks {
			sum += bd[b]
		}
		return float64(sum) / total
	}
	m["kernel.sched_share"] = share(stats.BlockSched)
	m["kernel.syscall_share"] = share(stats.BlockSyscall, stats.BlockDispatch, stats.BlockKernel)
	m["kernel.pt_share"] = share(stats.BlockPT)
	m["core.proxy_share"] = share(stats.BlockProxy, stats.BlockStub, stats.BlockTLS)
	m["user.share"] = share(stats.BlockUser)
	m["idle.share"] = share(stats.BlockIdle)
	return m
}

func busyShare(bd stats.Breakdown) float64 {
	total := float64(bd.Total())
	if total == 0 {
		return 0
	}
	return 1 - float64(bd[stats.BlockIdle])/total
}
