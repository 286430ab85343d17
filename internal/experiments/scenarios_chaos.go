// The chaos scenario family: degradation-under-failure companions to the
// fault-free figures. Each one runs a workload the paper measures
// healthy — the §7.5-style tier chain, the multi-machine rack ring —
// under a deterministic faults.Plan and reports goodput, error rate,
// availability and retry amplification instead of raw throughput. The
// plans fire on the sim clock, the per-call fault streams are seeded
// from (plan seed, site name), and the retry/backoff sleeps are
// simulated time, so every chaos digest is pinned like any other golden
// and byte-identical at every sweep width.

package experiments

import (
	"fmt"

	"repro/internal/apps/oltp"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// chaosModes are the transports a kill-a-tier plan is meaningful for:
// Ideal co-locates every tier in one process, so there is no tier to
// kill without killing the application.
var chaosModes = []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC}

// chaosRetry builds the retry policy shared by the chain chaos
// scenarios from their common parameters.
func chaosRetry(cfg *scenario.Config) faults.RetryPolicy {
	return faults.RetryPolicy{
		Deadline:   cfg.Duration("deadline"),
		MaxRetries: cfg.Int("retries"),
		Backoff:    cfg.Duration("backoff"),
		MaxBackoff: 8 * cfg.Duration("backoff"),
	}
}

// ---------------------------------------------------------------------
// chaos-kill: kill a middle tier mid-window, optionally restart it.

// chaosKillChain is chaos-kill's chain under mode, without its plan.
func chaosKillChain(cfg *scenario.Config, mode oltp.Mode) oltp.ChainFaultsConfig {
	return oltp.ChainFaultsConfig{
		ChainConfig: oltp.ChainConfig{
			Mode: mode, Depth: cfg.Int("depth"), Threads: cfg.Int("threads"),
			Work: cfg.Duration("work"), Warmup: cfg.Duration("warmup"),
			Window: cfg.Duration("window"), Seed: 5,
		},
		Retry: chaosRetry(cfg),
	}
}

func runChaosKillScenario(cfg *scenario.Config) (*scenario.Result, error) {
	depth := cfg.Int("depth")
	target := fmt.Sprintf("svc%d", (depth+1)/2)
	killat, restartat := cfg.Duration("killat"), cfg.Duration("restartat")

	cells := sweep(len(chaosModes), func(i int) *oltp.ChainFaultsResult {
		evs := []faults.Event{{At: killat, Kind: faults.KillProc, Target: target}}
		if restartat > 0 {
			evs = append(evs, faults.Event{At: restartat, Kind: faults.RestartProc, Target: target})
		}
		c := chaosKillChain(cfg, chaosModes[i])
		c.Plan = &faults.Plan{Seed: 5, Events: evs}
		return oltp.RunChainFaults(c)
	})

	res := &scenario.Result{Scenario: "chaos-kill", Params: cfg.ParamStrings()}
	for mi, mode := range chaosModes {
		r := cells[mi]
		x := float64(depth)
		res.Series = append(res.Series,
			scenario.Series{Label: mode.String() + " goodput", Unit: "ops/s",
				Points: []scenario.Point{{X: x, Y: r.Goodput}}},
			scenario.Series{Label: mode.String() + " availability", Unit: "%",
				Points: []scenario.Point{{X: x, Y: 100 * r.Availability}}},
			scenario.Series{Label: mode.String() + " retry amplification", Unit: "x",
				Points: []scenario.Point{{X: x, Y: r.RetryAmp}}},
			scenario.Series{Label: mode.String() + " latency", Unit: "us",
				Points: []scenario.Point{{X: x, Y: r.AvgLatency.Microseconds()}}})
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: kill %s@%s restart@%s: %.1f%% available, %.0f ops/s goodput, %d timeouts, %.2fx retry amp",
			mode, target, scenario.FormatDuration(killat), scenario.FormatDuration(restartat),
			100*cells[mi].Availability, cells[mi].Goodput, cells[mi].Rel.Timeouts, cells[mi].RetryAmp))
	}
	return res, nil
}

// ---------------------------------------------------------------------
// chaos-rack: flapping + degraded NIC links on the multi-machine ring.

func runChaosRackScenario(cfg *scenario.Config) (*scenario.Result, error) {
	warmup, window := cfg.Duration("warmup"), cfg.Duration("window")
	degrade := cfg.Duration("degrade")

	evs := faults.Flap("link1", warmup, warmup+window, cfg.Duration("flapperiod"), cfg.Duration("flapdown"))
	evs = append(evs,
		faults.Event{At: warmup + window/4, Kind: faults.LinkDegrade, Target: "link2", Extra: degrade},
		faults.Event{At: warmup + 3*window/4, Kind: faults.LinkRestore, Target: "link2"})

	c := ringConfig(cfg)
	c.Plan = &faults.Plan{Seed: 5, Events: evs}
	c.Retry = faults.RetryPolicy{
		Deadline:   cfg.Duration("deadline"),
		MaxRetries: cfg.Int("retries"),
		Backoff:    cfg.Duration("backoff"),
		MaxBackoff: 8 * cfg.Duration("backoff"),
	}
	r := oltp.RunRing(c)

	res := &scenario.Result{Scenario: "chaos-rack", Params: cfg.ParamStrings()}
	res.Series = append(res.Series,
		scenario.Series{Label: "goodput", Unit: "ops/s",
			Points: []scenario.Point{{X: float64(cfg.Int("machines")), Y: r.Goodput}}},
		scenario.Series{Label: "error rate", Unit: "%",
			Points: []scenario.Point{{X: float64(cfg.Int("machines")), Y: 100 * r.ErrorRate}}},
		scenario.Series{Label: "retry amplification", Unit: "x",
			Points: []scenario.Point{{X: float64(cfg.Int("machines")), Y: r.RetryAmp}}})
	drops := scenario.Series{Label: "drops per machine", Unit: "msgs"}
	for i, a := range r.PerMachine {
		drops.Points = append(drops.Points, scenario.Point{X: float64(i), Y: float64(a.Rel.Drops)})
	}
	down := scenario.Series{Label: "link downtime", Unit: "ms"}
	for i, dt := range r.LinkDowntime {
		down.Points = append(down.Points, scenario.Point{X: float64(i), Y: dt.Milliseconds()})
	}
	res.Series = append(res.Series, drops, down)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"flapping link1 + degraded link2: %.1f%% available, %.0f ops/s goodput, %d drops, %.2fx retry amp",
		100*r.Availability, r.Goodput, r.Rel.Drops, r.RetryAmp))
	return res, nil
}

// ---------------------------------------------------------------------
// chaos-retrystorm: probabilistic drops under a timeout x backoff sweep.

func runChaosRetryStormScenario(cfg *scenario.Config) (*scenario.Result, error) {
	deadlines, backoffs := cfg.Ints("deadlines"), cfg.Ints("backoffs")
	pdrop := cfg.Float("pdrop")

	// One cell per (backoff, deadline); every tier retries its downstream
	// hop, so a short deadline with an aggressive backoff multiplies the
	// offered load at the deepest tier — the classic retry storm.
	cells := sweep(len(backoffs)*len(deadlines), func(i int) *oltp.ChainFaultsResult {
		bo, dl := backoffs[i/len(deadlines)], deadlines[i%len(deadlines)]
		return oltp.RunChainFaults(oltp.ChainFaultsConfig{
			ChainConfig: oltp.ChainConfig{
				Mode: oltp.ModeDIPC, Depth: cfg.Int("depth"), Threads: cfg.Int("threads"),
				Work: cfg.Duration("work"), Warmup: cfg.Duration("warmup"),
				Window: cfg.Duration("window"), Seed: 5,
			},
			Plan: &faults.Plan{Seed: 5, DropProb: pdrop},
			Retry: faults.RetryPolicy{
				Deadline:   sim.Micros(float64(dl)),
				MaxRetries: cfg.Int("retries"),
				Backoff:    sim.Micros(float64(bo)),
				MaxBackoff: 8 * sim.Micros(float64(bo)),
				Jitter:     cfg.Float("jitter"),
			},
		})
	})
	at := func(bi, di int) *oltp.ChainFaultsResult { return cells[bi*len(deadlines)+di] }

	res := &scenario.Result{Scenario: "chaos-retrystorm", Params: cfg.ParamStrings()}
	for bi, bo := range backoffs {
		amp := scenario.Series{Label: fmt.Sprintf("backoff %dus retry amp", bo), Unit: "x"}
		good := scenario.Series{Label: fmt.Sprintf("backoff %dus goodput", bo), Unit: "ops/s"}
		avail := scenario.Series{Label: fmt.Sprintf("backoff %dus availability", bo), Unit: "%"}
		for di, dl := range deadlines {
			r := at(bi, di)
			amp.Points = append(amp.Points, scenario.Point{X: float64(dl), Y: r.RetryAmp})
			good.Points = append(good.Points, scenario.Point{X: float64(dl), Y: r.Goodput})
			avail.Points = append(avail.Points, scenario.Point{X: float64(dl), Y: 100 * r.Availability})
		}
		res.Series = append(res.Series, amp, good, avail)
	}
	worst := cells[0]
	for _, r := range cells[1:] {
		if r.RetryAmp > worst.RetryAmp {
			worst = r
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"%.0f%% drops over %d tiers: worst cell (deadline %s, backoff %s) amplifies %.2fx at %.1f%% availability",
		100*pdrop, cfg.Int("depth"), scenario.FormatDuration(worst.Config.Retry.Deadline),
		scenario.FormatDuration(worst.Config.Retry.Backoff), worst.RetryAmp, 100*worst.Availability))
	return res, nil
}

func init() {
	scenario.Register(scenario.NewChecked("chaos-kill",
		"Kill a middle chain tier mid-window (optional restart): availability and goodput under crash/recovery, Linux vs dIPC",
		[]scenario.ParamSpec{
			scenario.Param("depth", scenario.Int, "4", "service tiers behind the gateway"),
			scenario.Param("threads", scenario.Int, "4", "gateway workers (and per-tier workers on Linux)"),
			scenario.Param("work", scenario.Duration, "20us", "application work per tier per request"),
			scenario.Param("warmup", scenario.Duration, "5ms", "warmup before measurement"),
			scenario.Param("window", scenario.Duration, "20ms", "measurement window (simulated time)"),
			scenario.Param("killat", scenario.Duration, "8ms", "sim time the middle tier is killed"),
			scenario.Param("restartat", scenario.Duration, "15ms", "sim time the tier restarts (0: never)").AtLeast("0s"),
			scenario.Param("deadline", scenario.Duration, "300us", "per-attempt deadline at every hop"),
			scenario.Param("retries", scenario.Int, "2", "retries per call after the first attempt").AtLeast("0"),
			scenario.Param("backoff", scenario.Duration, "20us", "initial retry backoff (doubles, capped at 8x)"),
		},
		func(cfg *scenario.Config) error {
			for _, mode := range chaosModes {
				if err := faultsAfterBoot(cfg, chaosKillChain(cfg, mode), "killat", "restartat"); err != nil {
					return err
				}
			}
			return restartAfterKill(cfg)
		},
		runChaosKillScenario))

	scenario.Register(scenario.NewChecked("chaos-rack",
		"Flapping + degraded NIC links on the multi-machine ring: goodput and drops under lossy links",
		[]scenario.ParamSpec{
			scenario.Param("machines", scenario.Int, "4", "machines in the ring (link1 flaps, link2 degrades)").AtLeast("3"),
			scenario.Param("cpus", scenario.Int, "2", "cores per machine"),
			scenario.Param("workers", scenario.Int, "2", "service threads per non-client machine"),
			scenario.Param("clients", scenario.Int, "8", "closed-loop clients on machine 0"),
			scenario.Param("reqbytes", scenario.Int, "4096", "request size on the wire"),
			scenario.Param("work", scenario.Duration, "5us", "application work per hop"),
			scenario.Param("warmup", scenario.Duration, "4ms", "warmup before measurement"),
			scenario.Param("window", scenario.Duration, "20ms", "measurement window (simulated time)"),
			scenario.Param("flapperiod", scenario.Duration, "6ms", "time between link1 outages"),
			scenario.Param("flapdown", scenario.Duration, "2ms", "length of each link1 outage"),
			scenario.Param("degrade", scenario.Duration, "3us", "extra per-message delay on link2 mid-run").AtLeast("0s"),
			scenario.Param("deadline", scenario.Duration, "150us", "per-attempt client deadline"),
			scenario.Param("retries", scenario.Int, "2", "retries per operation after the first attempt").AtLeast("0"),
			scenario.Param("backoff", scenario.Duration, "10us", "initial retry backoff (doubles, capped at 8x)"),
		},
		func(cfg *scenario.Config) error {
			if err := flapBudget(cfg); err != nil {
				return err
			}
			return ringConfig(cfg).Validate()
		},
		runChaosRackScenario))

	scenario.Register(scenario.NewChecked("chaos-retrystorm",
		"Probabilistic request drops under a deadline x backoff sweep: retry amplification vs goodput on the dIPC chain",
		[]scenario.ParamSpec{
			scenario.Param("depth", scenario.Int, "3", "service tiers behind the gateway"),
			scenario.Param("threads", scenario.Int, "4", "gateway workers"),
			scenario.Param("work", scenario.Duration, "10us", "application work per tier per request"),
			scenario.Param("warmup", scenario.Duration, "3ms", "warmup before measurement"),
			scenario.Param("window", scenario.Duration, "10ms", "measurement window (simulated time)"),
			scenario.Param("pdrop", scenario.Float, "0.05", "per-call drop probability at every hop"),
			scenario.Param("deadlines", scenario.IntList, "100,300", "per-attempt deadlines to sweep (us)"),
			scenario.Param("retries", scenario.Int, "3", "retries per call after the first attempt").AtLeast("0"),
			scenario.Param("backoffs", scenario.IntList, "5,40", "initial backoffs to sweep (us, doubles, capped at 8x)"),
			scenario.Param("jitter", scenario.Float, "0", "backoff jitter fraction in [0,1] (0: exact exponential schedule; deterministic per-callsite streams)"),
		},
		func(cfg *scenario.Config) error {
			if p := cfg.Float("pdrop"); p < 0 || p >= 1 {
				return fmt.Errorf("pdrop %g out of range [0, 1)", p)
			}
			if j := cfg.Float("jitter"); j < 0 || j > 1 {
				return fmt.Errorf("jitter %g out of range [0, 1]", j)
			}
			return nil
		},
		runChaosRetryStormScenario))

	scenario.RegisterGroup("chaos",
		"Degradation-under-failure scenarios: crash/restart, lossy links, retry storms",
		"chaos-kill", "chaos-rack", "chaos-retrystorm")
}
