// The rack scenario: the first genuinely multi-machine workload. A ring
// of machines passes requests over NIC links — closed-loop clients on
// machine 0 inject a request that hops through every other machine (each
// hop costs wire flight time plus application work) and completes back
// at machine 0. Machines are the unit of placement
// (kernel.PlaceMachines): with shards>1 they are placed round-robin on
// the cluster's shards, which all run on one engine, and every
// cross-shard hop is a NIC link with positive lookahead. The determinism
// contract of sim.Cluster keeps the result digest byte-identical at
// every shard count. The `shards` parameter is execution-only, so that
// invariance holds by construction in the canonical output and is
// checked for the simulated quantities by sharded_golden_test.go.

package experiments

import (
	"fmt"

	"repro/internal/apps/oltp"
	"repro/internal/scenario"
)

// ringConfig is the ring the rack and chaos-rack scenarios share,
// without a fault plan or retry policy.
func ringConfig(cfg *scenario.Config) oltp.RingConfig {
	return oltp.RingConfig{
		Machines: cfg.Int("machines"), CPUs: cfg.Int("cpus"),
		Workers: cfg.Int("workers"), Clients: cfg.Int("clients"),
		ReqBytes: cfg.Int("reqbytes"), Work: cfg.Duration("work"),
		Window: cfg.Duration("window"), Warmup: cfg.Duration("warmup"),
		Seed: 5, Shards: cfg.Int("shards"),
	}
}

func runRackScenario(cfg *scenario.Config) (*scenario.Result, error) {
	// The ring with no fault plan and no deadline, so every request
	// completes.
	window := cfg.Duration("window")
	r := oltp.RunRing(ringConfig(cfg))
	throughput := float64(r.Merged.Ops) / window.Seconds()

	res := &scenario.Result{Scenario: "rack", Params: cfg.ParamStrings()}
	tput := scenario.Series{Label: "throughput", Unit: "ops/s"}
	tput.Points = append(tput.Points, scenario.Point{X: float64(cfg.Int("machines")), Y: throughput})
	lat := scenario.Series{Label: "avg latency", Unit: "us"}
	lat.Points = append(lat.Points, scenario.Point{X: float64(cfg.Int("machines")), Y: r.AvgLatency.Microseconds()})
	busy := scenario.Series{Label: "busy share per machine", Unit: "%"}
	for i, a := range r.PerMachine {
		share := 0.0
		if tot := a.Breakdown.Total(); tot > 0 {
			share = 100 * float64(a.Breakdown.Busy()) / float64(tot)
		}
		busy.Points = append(busy.Points, scenario.Point{X: float64(i), Y: share})
	}
	res.Series = append(res.Series, tput, lat, busy)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%d ops across a %d-machine ring: %.0f ops/s, %.1fus avg latency",
		r.Merged.Ops, cfg.Int("machines"), throughput, r.AvgLatency.Microseconds()))
	return res, nil
}

func shardsParam() scenario.ParamSpec {
	return scenario.ExecParam("shards", scenario.Int, "1",
		"placement shards for the clustered simulation, all on one engine (0: one per host core)").AtLeast("0")
}

func init() {
	scenario.Register(scenario.NewChecked("rack",
		"Multi-machine ring over NIC links: the sharded-engine workload (machines placed round-robin on shards)",
		[]scenario.ParamSpec{
			scenario.Param("machines", scenario.Int, "4", "machines in the ring (machine 0 hosts the clients)"),
			scenario.Param("cpus", scenario.Int, "2", "cores per machine"),
			scenario.Param("workers", scenario.Int, "2", "service threads per non-client machine"),
			scenario.Param("clients", scenario.Int, "8", "closed-loop clients on machine 0"),
			scenario.Param("reqbytes", scenario.Int, "4096", "request size on the wire"),
			scenario.Param("work", scenario.Duration, "5us", "application work per hop"),
			scenario.Param("window", scenario.Duration, "40ms", "measurement window (simulated time)"),
			scenario.Param("warmup", scenario.Duration, "5ms", "warmup before measurement"),
			shardsParam(),
		},
		func(cfg *scenario.Config) error { return ringConfig(cfg).Validate() },
		runRackScenario))
}
