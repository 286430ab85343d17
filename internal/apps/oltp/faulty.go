package oltp

import (
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Failure-aware OLTP path: per-call fault verdicts, a deadline/backoff
// retry policy, and in-band error propagation up a tier chain, so the
// chaos scenarios can measure how each transport degrades when tiers
// die, links drop, or calls time out. It is also the one chain runner:
// with a nil plan RunChainFaults draws no verdict and makes exactly the
// charges of a world where every call succeeds — what the paper
// measures.

// unwrapRemote converts an in-band faults.RemoteError payload into a Go
// error; any other payload passes through. All TryCall implementations
// funnel handler output through this, so a failure N tiers down surfaces
// at the client as an error without any transport growing an error
// channel.
func unwrapRemote(out any) (any, error) {
	if re, ok := out.(*faults.RemoteError); ok {
		return nil, re
	}
	return out, nil
}

// injectFault draws one verdict from the call site and acts it out on
// the calling thread: a drop burns the site's penalty (the caller's
// deadline — a lost request is indistinguishable from a slow one until
// the timer fires) and reports ErrTimeout, a slow stretches the call
// and succeeds. Nil site: no draw, no cost, no error.
//
//dipcvet:noalloc
func injectFault(t *kernel.Thread, site *faults.CallSite) error {
	v, d := site.Draw()
	switch v {
	case faults.VerdictDrop:
		t.SleepFor(d)
		return site.DropErr()
	case faults.VerdictSlow:
		t.SleepFor(d)
	}
	return nil
}

// Retrier wraps a Transport with a capped-exponential-backoff retry
// policy and failure accounting. Its TryCall re-attempts the inner call
// up to Policy.MaxRetries times, sleeping Policy.BackoffFor(k) between
// attempts.
type Retrier struct {
	Inner  Transport
	Policy faults.RetryPolicy
	// Rel receives attempt-level accounting (may be nil).
	Rel *stats.Reliability
	// Jitter is the deterministic stream consumed by backoff jitter
	// (Policy.Jitter > 0). Nil keeps the exact schedule.
	Jitter *sim.Rand
}

// retryJitter builds the named jitter stream (one per call site, e.g.
// "hop2", or per client, e.g. "client3", so each de-synchronizes
// independently) when the policy opts into jitter, and the transparent
// nil stream otherwise — so un-jittered runs never construct (or
// consume) a stream and stay byte-identical to the pre-jitter engine.
func retryJitter(rp faults.RetryPolicy, plan *faults.Plan, name string) *sim.Rand {
	if rp.Jitter <= 0 {
		return nil
	}
	return plan.JitterStream(name)
}

// TryCall implements Transport with retries: attempt, classify, back
// off, repeat. The residual error after the last attempt is returned.
//
//dipcvet:noalloc
func (r *Retrier) TryCall(t *kernel.Thread, op string, payload any, reqBytes int) (any, error) {
	var lastErr error
	for a := 0; a <= r.Policy.MaxRetries; a++ {
		if a > 0 {
			if r.Rel != nil {
				r.Rel.Retries++
			}
			t.SleepFor(r.Policy.BackoffJittered(a-1, r.Jitter))
		}
		if r.Rel != nil {
			r.Rel.Attempts++
		}
		out, err := r.Inner.TryCall(t, op, payload, reqBytes)
		if err == nil {
			return out, nil
		}
		lastErr = err
		class := faults.Class(err)
		if r.Rel != nil {
			switch class {
			case faults.ErrTimeout:
				r.Rel.Timeouts++
			case faults.ErrRejected:
				r.Rel.Rejected++
			default:
				r.Rel.Faults++
			}
		}
		if class == faults.ErrRejected {
			// A rejection is a deliberate shed by admission control or a
			// breaker, not a transient: retrying it is exactly the
			// amplification those tiers exist to prevent.
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// ChainFaultsConfig is a chain run with a fault plan and retry policy.
type ChainFaultsConfig struct {
	ChainConfig
	// Plan is the fault schedule (nil or empty: a fault-free run that
	// still exercises the TryCall/Retrier path).
	Plan *faults.Plan
	// Retry applies at every hop, gateway included. Zero-value fields
	// default to Deadline 500us, Backoff 20us, MaxBackoff uncapped,
	// MaxRetries 0 (no retry).
	Retry faults.RetryPolicy
}

// ChainFaultsResult is the degradation-under-failure measurement.
type ChainFaultsResult struct {
	Config       ChainFaultsConfig
	Rel          stats.Reliability // window delta of all failure counters
	Goodput      float64           // successful ops per second
	ErrorRate    float64           // failed / offered
	Availability float64           // succeeded / offered
	RetryAmp     float64           // attempts per operation
	AvgLatency   sim.Time          // mean latency of in-window completions that succeeded
	Breakdown    stats.Breakdown
	CallsPerOp   float64 // cross-tier calls per completed operation over the whole run
}

// applyDefaults fills the zero-value fields of a chain configuration;
// RunChainFaults and RunOpenLoop share these floors.
func (cfg *ChainFaultsConfig) applyDefaults() {
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Threads
	}
	if cfg.Work == 0 {
		cfg.Work = sim.Micros(20)
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 256
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Millis(20)
	}
	if cfg.Window == 0 {
		cfg.Window = sim.Millis(100)
	}
	if cfg.Retry.Deadline == 0 {
		cfg.Retry.Deadline = sim.Micros(500)
	}
	if cfg.Retry.Backoff == 0 {
		cfg.Retry.Backoff = sim.Micros(20)
	}
}

// tiers is the single-machine tier chain this configuration describes.
func (cfg *ChainFaultsConfig) tiers() *tierChain {
	return &tierChain{Mode: cfg.Mode, Depth: cfg.Depth, Threads: cfg.Threads,
		ReqBytes: cfg.ReqBytes, Work: cfg.Work, Plan: cfg.Plan, Deadline: cfg.Retry.Deadline}
}

// BootTime returns the sim time at which cfg's tier chain has booted:
// the earliest time its fault plan can schedule an event. It boots the
// chain on a throwaway rig, so scenarios can reject a fault time before
// boot as a config error instead of a panic from the run.
func (cfg ChainFaultsConfig) BootTime() sim.Time {
	cfg.applyDefaults()
	r := newRig(cfg.Seed, cfg.CPUs, GatewayConfig{}, stats.Window{})
	defer r.eng.Close()
	buildChain(cfg.tiers(), r.m, r.prm, faults.NewInjector(nil), func(tr Transport, _ int) Transport { return tr })
	return r.eng.Now()
}

// RunChainFaults executes one chain configuration under a fault plan:
// closed-loop clients drive the gateway, every hop goes through TryCall
// behind a Retrier, tier failures travel up as RemoteErrors, and the
// plan's events fire on the sim clock via a faults.Injector. Process
// targets are named "gateway" and "svc1".."svcN" ("chain-app" for
// Ideal); per-call fault sites are "hop1".."hopN". With a nil plan no
// verdict is drawn, so every call succeeds with exactly the charges the
// paper measures.
func RunChainFaults(cfg ChainFaultsConfig) *ChainFaultsResult {
	cfg.applyDefaults()
	r := newRig(cfg.Seed, cfg.CPUs, GatewayConfig{}, stats.Window{Start: cfg.Warmup, End: cfg.Warmup + cfg.Window})
	defer r.eng.Close()
	r.serveChain(&cfg, nil)

	// Op outcomes count in r.outcomes when r.win holds their completion.
	// The Retriers count attempts at any time into r.rel, which measure
	// empties at the window's start; warm keeps the warm-up's attempts.
	r.closedLoop(cfg.Clients, cfg.Seed, nil)
	var warm int64
	bd := measure(r.eng, []*kernel.Machine{r.m}, r.win, func() { warm, r.rel = r.rel.Attempts, stats.Reliability{} })
	window := r.rel
	window.OpsOK, window.OpsFailed = r.outcomes.OpsOK, r.outcomes.OpsFailed
	res := &ChainFaultsResult{
		Config:       cfg,
		Rel:          window,
		Goodput:      window.Goodput(cfg.Window),
		ErrorRate:    window.ErrorRate(),
		Availability: window.Availability(),
		RetryAmp:     window.RetryAmplification(),
		Breakdown:    bd[0],
	}
	if r.outcomes.OpsOK > 0 {
		res.AvgLatency = r.okLatency / sim.Time(r.outcomes.OpsOK)
	}
	// Every hop is one Retrier over a base transport, so each attempt
	// the Retriers count is one cross-tier call.
	if r.completed > 0 {
		res.CallsPerOp = float64(warm+r.rel.Attempts) / float64(r.completed)
	}
	return res
}
