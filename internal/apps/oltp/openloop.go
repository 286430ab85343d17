package oltp

import (
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Open-loop OLTP path: the closed-loop runners (Run,
// RunChainFaults) measure peak throughput — clients wait for each
// response, so offered load can never exceed capacity and the system
// never sees overload. This runner drives the same tier chain from a
// load.Generator: arrivals fire at a configured offered rate whether or
// not the system keeps up, requests carry client-side deadlines, and a
// Gateway admission tier decides what to shed. This is the harness for
// the tail-latency-vs-offered-load knee, the shed-policy comparison,
// and the breaker-vs-collapse storm measurements.

// OpenLoopConfig drives one open-loop chain run.
type OpenLoopConfig struct {
	ChainFaultsConfig

	// MeanGap is the mean inter-arrival gap of the Poisson session
	// arrivals — offered load is 1/MeanGap sessions per second.
	MeanGap sim.Time

	// Session shape (connection churn): Sessions concurrent slots,
	// Requests per session issued back to back, client-side Deadline
	// per request (0: 4x the retry deadline).
	Sessions, Requests int
	Deadline           sim.Time

	// Gateway is the admission tier configuration.
	Gateway GatewayConfig
	// Breaker, when non-nil, wraps every hop transport in a circuit
	// breaker inside its Retrier.
	Breaker *BreakerConfig
}

// OpenLoopResult is the overload measurement.
type OpenLoopResult struct {
	Config OpenLoopConfig

	// Offered demand, in-window: requests issued, sessions begun,
	// arrivals balked at the (client-side) connection pool.
	Offered, SessionsRun, Balked int64
	OfferedRate                  float64 // requests issued per second

	// Rel is the op-level outcome accounting, client-observed: an op
	// counts when its completion falls inside the run's stats.Window.
	// Attempts is the Retriers' attempt-level accounting over the same
	// window: transport attempts, retries, and the per-attempt
	// timeout/fault split.
	Rel      stats.Reliability
	Attempts stats.Reliability

	Goodput      float64 // successful ops per second
	ErrorRate    float64 // failed / completed
	Availability float64 // succeeded / completed
	RejectRate   float64 // shed / completed
	RetryAmp     float64 // transport attempts per completed op

	// Success latency distribution (client-observed).
	P50, P99, P999, Max sim.Time

	// Gateway shed accounting and breaker activity over the whole run.
	Admitted, RejFull, RejStale, RejToken int64
	Trips, FastFails                      int64

	Breakdown stats.Breakdown
}

// RunOpenLoop executes one open-loop chain configuration. Fault-plan
// target names follow RunChainFaults ("gateway", "svc1".."svcN", sites
// "hop1".."hopN").
func RunOpenLoop(cfg OpenLoopConfig) *OpenLoopResult {
	r, gen, breakers := startOpenLoop(&cfg)
	defer r.eng.Close()
	// The Retriers count attempts at any time into r.rel, which measure
	// empties at the window's start.
	bd := measure(r.eng, []*kernel.Machine{r.m}, r.win, func() { r.rel = stats.Reliability{} })
	attempts := r.rel
	res := &OpenLoopResult{
		Config:       cfg,
		Offered:      gen.Offered,
		SessionsRun:  gen.Sessions,
		Balked:       gen.Balked,
		OfferedRate:  float64(gen.Offered) / cfg.Window.Seconds(),
		Rel:          gen.Acc.Rel,
		Attempts:     attempts,
		Goodput:      gen.Acc.Rel.Goodput(cfg.Window),
		ErrorRate:    gen.Acc.Rel.ErrorRate(),
		Availability: gen.Acc.Rel.Availability(),
		RejectRate:   gen.Acc.Rel.RejectRate(),
		P50:          gen.Acc.Hist.P50(),
		P99:          gen.Acc.Hist.P99(),
		P999:         gen.Acc.Hist.P999(),
		Max:          gen.Acc.Hist.Max(),
		Admitted:     r.gw.Admitted,
		RejFull:      r.gw.RejectedFull,
		RejStale:     r.gw.RejectedStale,
		RejToken:     r.gw.RejectedToken,
		Breakdown:    bd[0],
	}
	if ops := gen.Acc.Rel.OpsOK + gen.Acc.Rel.OpsFailed; ops > 0 {
		res.RetryAmp = float64(attempts.Attempts) / float64(ops)
	}
	for _, br := range breakers {
		res.Trips += br.Trips()
		res.FastFails += br.FastFails()
	}
	return res
}

// startOpenLoop applies cfg's defaults and builds its rig — the chain
// behind the gateway and the load generator feeding it — without
// running it. The caller closes r.eng.
func startOpenLoop(cfg *OpenLoopConfig) (*rig, *load.Generator, []*Breaker) {
	cfg.applyDefaults()
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = sim.Micros(50)
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4 * cfg.Clients
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 4
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 4 * cfg.Retry.Deadline
	}

	r := newRig(cfg.Seed, cfg.CPUs, cfg.Gateway, stats.Window{Start: cfg.Warmup, End: cfg.Warmup + cfg.Window})
	breakers := r.serveChain(&cfg.ChainFaultsConfig, cfg.Breaker)

	gen := load.Start(r.eng, load.Config{
		Arrivals: load.NewPoisson(cfg.Seed+2, cfg.MeanGap),
		Sessions: cfg.Sessions,
		Requests: cfg.Requests,
		Deadline: cfg.Deadline,
		Window:   r.win,
		Issue:    r.gw.Issue,
	})
	return r, gen, breakers
}
