// The rack scenario: the first genuinely multi-machine workload. A ring
// of machines passes requests over NIC links — closed-loop clients on
// machine 0 inject a request that hops through every other machine (each
// hop costs wire flight time plus application work) and completes back
// at machine 0. Every machine runs on one engine, and every hop between
// machines is a NIC link whose lookahead is the wire's base latency.

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
		Seed: 5,
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

func init() {
	scenario.Register(scenario.NewChecked("rack",
		"Multi-machine ring over NIC links",
		[]scenario.ParamSpec{
			scenario.Param("machines", scenario.Int, "4", "machines in the ring (machine 0 hosts the clients)"),
			scenario.Param("cpus", scenario.Int, "2", "cores per machine"),
			scenario.Param("workers", scenario.Int, "2", "service threads per non-client machine"),
			scenario.Param("clients", scenario.Int, "8", "closed-loop clients on machine 0"),
			scenario.Param("reqbytes", scenario.Int, "4096", "request size on the wire"),
			scenario.Param("work", scenario.Duration, "5us", "application work per hop"),
			scenario.Param("window", scenario.Duration, "40ms", "measurement window (simulated time)"),
			scenario.Param("warmup", scenario.Duration, "5ms", "warmup before measurement"),
		},
		func(cfg *scenario.Config) error { return ringConfig(cfg).Validate() },
		runRackScenario))
}
