// The overload scenario family: open-loop companions to the closed-loop
// peak-throughput figures. The paper's §7 methodology (and every other
// scenario here) drives the system from closed loops, which structurally
// cannot overload it — clients slow down with the server. These three
// scenarios drive the §7.5-style tier chain from the load package's
// open-loop Poisson arrivals instead and measure what that hides: where
// each transport's tail-latency knee sits as offered load climbs, what a
// gateway admission policy buys once demand exceeds the knee, and
// whether a per-downstream circuit breaker turns a tier crash from a
// collapse into a recovery. Arrival streams and fault plans are all
// seeded sim streams, so every digest is pinned and
// byte-identical at every sweep width.

package experiments

import (
	"fmt"

	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// kneeModes are the transports the offered-load sweep compares.
var kneeModes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal}

// overloadGap converts an offered load in k-requests/s to the
// generator's nominal mean session inter-arrival gap: each session
// issues `requests` requests, so sessions arrive at kops/requests.
func overloadGap(kops, requests int) sim.Time {
	return sim.Time(requests) * sim.Second / sim.Time(kops*1000)
}

// overloadBase assembles the chain+session configuration shared by the
// overload scenarios from their common parameters.
func overloadBase(cfg *scenario.Config, mode oltp.Mode, kops int) oltp.OpenLoopConfig {
	return oltp.OpenLoopConfig{
		ChainFaultsConfig: oltp.ChainFaultsConfig{
			ChainConfig: oltp.ChainConfig{
				Mode: mode, Depth: cfg.Int("depth"), Threads: cfg.Int("threads"),
				CPUs: cfg.Int("cpus"), Work: cfg.Duration("work"),
				Warmup: cfg.Duration("warmup"), Window: cfg.Duration("window"),
				Seed: 5,
			},
			Retry: faults.RetryPolicy{Deadline: cfg.Duration("hopdeadline")},
		},
		MeanGap:  overloadGap(kops, cfg.Int("requests")),
		Sessions: cfg.Int("sessions"),
		Requests: cfg.Int("requests"),
		Deadline: cfg.Duration("deadline"),
	}
}

// overloadParams are the knobs every overload scenario shares.
func overloadParams() []scenario.ParamSpec {
	return []scenario.ParamSpec{
		scenario.Param("depth", scenario.Int, "2", "service tiers behind the gateway"),
		scenario.Param("threads", scenario.Int, "8", "gateway workers (and per-tier workers on Linux)"),
		scenario.Param("cpus", scenario.Int, "4", "simulated CPUs"),
		scenario.Param("work", scenario.Duration, "10us", "application work per tier per request"),
		scenario.Param("warmup", scenario.Duration, "5ms", "warmup before measurement"),
		scenario.Param("window", scenario.Duration, "20ms", "measurement window (simulated time)"),
		scenario.Param("sessions", scenario.Int, "512", "concurrent client session slots"),
		scenario.Param("requests", scenario.Int, "4", "requests per session before the client disconnects"),
		scenario.Param("deadline", scenario.Duration, "2ms", "client-side per-request deadline"),
		scenario.Param("hopdeadline", scenario.Duration, "500us", "per-attempt deadline at every hop"),
	}
}

// ---------------------------------------------------------------------
// overload-knee: tail latency vs offered load, per transport.

func runOverloadKneeScenario(cfg *scenario.Config) (*scenario.Result, error) {
	kops := cfg.Ints("kops")

	cells := sweep(len(kneeModes)*len(kops), func(i int) *oltp.OpenLoopResult {
		mode, k := kneeModes[i/len(kops)], kops[i%len(kops)]
		c := overloadBase(cfg, mode, k)
		c.Gateway = oltp.GatewayConfig{Policy: oltp.AdmitNone}
		return oltp.RunOpenLoop(c)
	})
	at := func(mi, ki int) *oltp.OpenLoopResult { return cells[mi*len(kops)+ki] }

	res := &scenario.Result{Scenario: "overload-knee", Params: cfg.ParamStrings()}
	for mi, mode := range kneeModes {
		p50 := scenario.Series{Label: mode.String() + " p50", Unit: "us"}
		p99 := scenario.Series{Label: mode.String() + " p99", Unit: "us"}
		p999 := scenario.Series{Label: mode.String() + " p999", Unit: "us"}
		good := scenario.Series{Label: mode.String() + " goodput", Unit: "ops/s"}
		for ki, k := range kops {
			r := at(mi, ki)
			x := float64(k)
			p50.Points = append(p50.Points, scenario.Point{X: x, Y: r.P50.Microseconds()})
			p99.Points = append(p99.Points, scenario.Point{X: x, Y: r.P99.Microseconds()})
			p999.Points = append(p999.Points, scenario.Point{X: x, Y: r.P999.Microseconds()})
			good.Points = append(good.Points, scenario.Point{X: x, Y: r.Goodput})
		}
		res.Series = append(res.Series, p50, p99, p999, good)
		lo, hi := at(mi, 0), at(mi, len(kops)-1)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: %dk->%dk ops/s offered: p99 %.0fus -> %.0fus, goodput %.0f -> %.0f ops/s, %d timeouts at peak",
			mode, kops[0], kops[len(kops)-1],
			lo.P99.Microseconds(), hi.P99.Microseconds(),
			lo.Goodput, hi.Goodput, hi.Rel.Timeouts))
	}
	return res, nil
}

// ---------------------------------------------------------------------
// overload-shed: admission policies compared past the knee.

// shedPolicies orders the admission-policy comparison.
var shedPolicies = []oltp.AdmitPolicy{oltp.AdmitNone, oltp.AdmitFIFO, oltp.AdmitLIFO, oltp.AdmitToken}

func runOverloadShedScenario(cfg *scenario.Config) (*scenario.Result, error) {
	kops := cfg.Int("kops")

	cells := sweep(len(shedPolicies), func(i int) *oltp.OpenLoopResult {
		c := overloadBase(cfg, oltp.ModeDIPC, kops)
		c.Gateway = oltp.GatewayConfig{
			Policy:     shedPolicies[i],
			Capacity:   cfg.Int("queuecap"),
			Budget:     cfg.Duration("budget"),
			TokenRate:  float64(cfg.Int("tokenkops")) * 1000,
			TokenBurst: cfg.Int("tokenburst"),
		}
		return oltp.RunOpenLoop(c)
	})

	res := &scenario.Result{Scenario: "overload-shed", Params: cfg.ParamStrings()}
	for pi, pol := range shedPolicies {
		r := cells[pi]
		x := float64(pi)
		res.Series = append(res.Series,
			scenario.Series{Label: pol.String() + " goodput", Unit: "ops/s",
				Points: []scenario.Point{{X: x, Y: r.Goodput}}},
			scenario.Series{Label: pol.String() + " p99 admitted", Unit: "us",
				Points: []scenario.Point{{X: x, Y: r.P99.Microseconds()}}},
			scenario.Series{Label: pol.String() + " reject rate", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * r.RejectRate}}},
			scenario.Series{Label: pol.String() + " availability", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * r.Availability}}})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s @ %dk ops/s offered: %.0f ops/s goodput, p99 %.0fus, %.1f%% rejected (%d full, %d stale, %d token), %d timeouts",
			pol, kops, r.Goodput, r.P99.Microseconds(),
			100*r.RejectRate, r.RejFull, r.RejStale, r.RejToken, r.Rel.Timeouts))
	}
	return res, nil
}

// ---------------------------------------------------------------------
// overload-storm: tier crash under load, breaker on vs off.

// stormModes compares the transports that have a killable tier.
var stormModes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC}

func runOverloadStormScenario(cfg *scenario.Config) (*scenario.Result, error) {
	kops := cfg.Int("kops")
	killat, restartat := cfg.Duration("killat"), cfg.Duration("restartat")

	// Cells: (mode) x (breaker off, on).
	cells := sweep(len(stormModes)*2, func(i int) *oltp.OpenLoopResult {
		mode, withBreaker := stormModes[i/2], i%2 == 1
		c := overloadBase(cfg, mode, kops)
		target := fmt.Sprintf("svc%d", c.Depth)
		c.Plan = &faults.Plan{Seed: 5, Events: []faults.Event{
			{At: killat, Kind: faults.KillProc, Target: target},
			{At: restartat, Kind: faults.RestartProc, Target: target},
		}}
		// Retries make the storm: each failing op burns its caller's
		// backoff budget, multiplying the outage's cost upstream.
		c.Retry.MaxRetries = cfg.Int("retries")
		c.Retry.Backoff = cfg.Duration("backoff")
		c.Retry.MaxBackoff = 8 * cfg.Duration("backoff")
		c.Gateway = oltp.GatewayConfig{Policy: oltp.AdmitFIFO, Capacity: cfg.Int("queuecap")}
		if withBreaker {
			c.Breaker = &oltp.BreakerConfig{
				Window: 16, Threshold: 0.5,
				Cooldown: cfg.Duration("cooldown"), Probes: 2,
			}
		}
		return oltp.RunOpenLoop(c)
	})
	at := func(mi int, withBreaker bool) *oltp.OpenLoopResult {
		i := mi * 2
		if withBreaker {
			i++
		}
		return cells[i]
	}

	res := &scenario.Result{Scenario: "overload-storm", Params: cfg.ParamStrings()}
	for mi, mode := range stormModes {
		off, on := at(mi, false), at(mi, true)
		x := float64(mi)
		res.Series = append(res.Series,
			scenario.Series{Label: mode.String() + " availability (no breaker)", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * off.Availability}}},
			scenario.Series{Label: mode.String() + " availability (breaker)", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * on.Availability}}},
			scenario.Series{Label: mode.String() + " goodput (no breaker)", Unit: "ops/s",
				Points: []scenario.Point{{X: x, Y: off.Goodput}}},
			scenario.Series{Label: mode.String() + " goodput (breaker)", Unit: "ops/s",
				Points: []scenario.Point{{X: x, Y: on.Goodput}}},
			scenario.Series{Label: mode.String() + " breaker trips", Unit: "count",
				Points: []scenario.Point{{X: x, Y: float64(on.Trips)}}},
			scenario.Series{Label: mode.String() + " fast fails", Unit: "count",
				Points: []scenario.Point{{X: x, Y: float64(on.FastFails)}}})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: kill %s@%s restart@%s: availability %.1f%% -> %.1f%% with breaker (%d trips, %d fast-fails), goodput %.0f -> %.0f ops/s",
			mode, fmt.Sprintf("svc%d", cfg.Int("depth")), scenario.FormatDuration(killat),
			scenario.FormatDuration(restartat), 100*off.Availability, 100*on.Availability,
			on.Trips, on.FastFails, off.Goodput, on.Goodput))
	}
	return res, nil
}

func init() {
	scenario.Register(scenario.New("overload-knee",
		"Open-loop offered-load sweep: p50/p99/p999 and goodput per transport as demand crosses the saturation knee",
		append(overloadParams(),
			scenario.Param("kops", scenario.IntList, "10,20,40,80,160", "offered loads to sweep (kops/s)")),
		runOverloadKneeScenario))

	scenario.Register(scenario.New("overload-shed",
		"Admission policies (none/fifo/lifo/token) compared at 1.5x the knee: goodput, p99 of admitted, rejection rate on the dIPC chain",
		append(overloadParams(),
			scenario.Param("kops", scenario.Int, "240", "offered load (kops/s), past the knee"),
			scenario.Param("queuecap", scenario.Int, "512", "admission queue capacity (bounded policies)"),
			scenario.Param("budget", scenario.Duration, "500us", "max queueing age before LIFO rejects at dequeue"),
			scenario.Param("tokenkops", scenario.Int, "110", "token-bucket admission rate (kops/s)"),
			scenario.Param("tokenburst", scenario.Int, "64", "token-bucket burst depth")),
		runOverloadShedScenario))

	scenario.Register(scenario.NewChecked("overload-storm",
		"Tier crash under open-loop load at the knee, with retries: circuit breaker on vs off, collapse vs recovery, Linux vs dIPC",
		append(overloadParams(),
			scenario.Param("kops", scenario.Int, "120", "offered load (kops/s), at the dIPC knee"),
			scenario.Param("killat", scenario.Duration, "8ms", "sim time the deepest tier is killed"),
			scenario.Param("restartat", scenario.Duration, "18ms", "sim time the tier restarts"),
			scenario.Param("retries", scenario.Int, "3", "retries per call after the first attempt").AtLeast("0"),
			scenario.Param("backoff", scenario.Duration, "100us", "initial retry backoff (doubles, capped at 8x)"),
			scenario.Param("queuecap", scenario.Int, "256", "admission queue capacity"),
			scenario.Param("cooldown", scenario.Duration, "500us", "breaker cooldown before half-open probes")),
		func(cfg *scenario.Config) error {
			for _, mode := range stormModes {
				c := overloadBase(cfg, mode, cfg.Int("kops")).ChainFaultsConfig
				if err := faultsAfterBoot(cfg, c, "killat", "restartat"); err != nil {
					return err
				}
			}
			return restartAfterKill(cfg)
		},
		runOverloadStormScenario))

	scenario.RegisterGroup("overload",
		"Open-loop overload scenarios: tail-latency knee, admission policies, breaker vs collapse",
		"overload-knee", "overload-shed", "overload-storm")
}
