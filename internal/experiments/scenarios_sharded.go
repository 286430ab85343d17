// The rack scenario: the first genuinely multi-machine workload, and
// the showcase for the sharded engine. A ring of machines passes
// requests over NIC links — closed-loop clients on machine 0 inject a
// request that hops through every other machine (each hop costs wire
// flight time plus application work) and completes back at machine 0.
// Machines are the unit of placement (kernel.PlaceMachines): with
// shards>1 the machines run on different host cores in parallel inside
// the NIC's lookahead window, and the determinism contract of
// sim.Cluster guarantees the result digest is byte-identical at every
// shard count. The `shards` parameter is execution-only, so that
// invariance holds by construction in the canonical output and is
// checked for the simulated quantities by sharded_golden_test.go.

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// RackConfig parameterizes one rack run.
type RackConfig struct {
	Machines int // ring size (>= 1)
	CPUs     int // cores per machine
	Workers  int // service threads per non-client machine
	Clients  int // closed-loop clients on machine 0
	ReqBytes int // request size on the wire
	Work     sim.Time
	Window   sim.Time // measurement window (after warmup)
	Warmup   sim.Time
	Seed     uint64
	Shards   int // engine shards (<= 0: one per host core)
}

func runRackScenario(cfg *scenario.Config) (*scenario.Result, error) {
	// The chaos ring with no fault plan and no deadline, so every
	// request completes.
	window := cfg.Duration("window")
	r := runRack(RackChaosConfig{RackConfig: RackConfig{
		Machines: cfg.Int("machines"),
		CPUs:     cfg.Int("cpus"),
		Workers:  cfg.Int("workers"),
		Clients:  cfg.Int("clients"),
		ReqBytes: cfg.Int("reqbytes"),
		Work:     cfg.Duration("work"),
		Window:   window,
		Warmup:   cfg.Duration("warmup"),
		Seed:     5,
		Shards:   cfg.Int("shards"),
	}})
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
		"engine shards for the one clustered simulation (1: sequential reference; 0: one per host core)")
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
		func(cfg *scenario.Config) error {
			return firstErr(intAtLeast("machines", cfg.Int("machines"), 1),
				intAtLeast("cpus", cfg.Int("cpus"), 1),
				intAtLeast("workers", cfg.Int("workers"), 1),
				intAtLeast("clients", cfg.Int("clients"), 1),
				intAtLeast("reqbytes", cfg.Int("reqbytes"), 1),
				durationPositive("work", cfg.Duration("work")),
				durationPositive("window", cfg.Duration("window")),
				durationPositive("warmup", cfg.Duration("warmup")),
				intAtLeast("shards", cfg.Int("shards"), 0))
		},
		runRackScenario))
}
