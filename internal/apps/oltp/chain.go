package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Microservice chain sweep: a request enters a gateway tier and is
// forwarded through a chain of N service tiers, each adding its own
// application work, over the same three transports as Fig. 8 — UNIX
// sockets between per-tier worker pools (Linux), dIPC proxies executing
// in place (dIPC), and plain function calls (Ideal). The paper's §7.5
// argues dIPC's advantage compounds as call chains deepen; no figure
// sweeps the depth axis, so this wiring (driven by the `chain` scenario)
// extends the evaluation along it.

// ChainConfig is one chain run.
type ChainConfig struct {
	Mode     Mode
	Depth    int      // service tiers behind the gateway (>= 1)
	Threads  int      // gateway workers; also workers per tier (Linux)
	CPUs     int      // simulated CPU count (defaults to 4)
	Clients  int      // concurrent closed-loop clients (defaults to Threads)
	Work     sim.Time // per-tier application work per request
	ReqBytes int      // request/response payload bytes per hop
	Warmup   sim.Time
	Window   sim.Time
	Seed     uint64
	// Cost overrides the machine cost model.
	Cost *cost.Params
}

// ChainResult is the measured outcome of a chain run.
type ChainResult struct {
	Config     ChainConfig
	Ops        int             // completed operations in the window
	Throughput float64         // operations per minute
	AvgLatency sim.Time        // mean client-observed latency
	Breakdown  stats.Breakdown // machine time over the window
	CallsPerOp float64         // cross-tier calls per operation
}

// UserShare, KernelShare, IdleShare report the Fig. 1-style breakdown
// fractions of the measurement window.
func (r *ChainResult) UserShare() float64 { return userShare(r.Breakdown) }

// KernelShare is the privileged fraction (kernel, scheduling, proxies).
func (r *ChainResult) KernelShare() float64 { return kernelShare(r.Breakdown) }

// IdleShare is the idle/IO-wait fraction.
func (r *ChainResult) IdleShare() float64 { return idleShare(r.Breakdown) }

// chainPath names tier i's published dIPC entry.
func chainPath(i int) string { return fmt.Sprintf("/run/chain-svc%d.sock", i) }

// RunChain executes one chain configuration and returns its
// measurements: the fault-aware runner with no fault plan, whose
// TryCall paths then make exactly the charges of a world where every
// call succeeds.
func RunChain(cfg ChainConfig) *ChainResult {
	fr, callsPerOp := runChainFaults(ChainFaultsConfig{ChainConfig: cfg})
	res := &ChainResult{
		Config:     fr.Config.ChainConfig,
		Ops:        int(fr.Rel.Ops()),
		AvgLatency: fr.AvgLatency,
		Breakdown:  fr.Breakdown,
		CallsPerOp: callsPerOp,
	}
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / res.Config.Window.Seconds() * 60
	}
	return res
}

// tierChain is one tier chain for buildChain: a front process (the
// gateway, or a replica's front) calling through Depth service tiers
// over Mode's transports.
type tierChain struct {
	Mode     Mode
	Depth    int
	Threads  int      // socket workers per service tier (Linux)
	ReqBytes int      // request/response bytes per hop
	Work     sim.Time // application work per service tier
	Plan     *faults.Plan
	Deadline sim.Time // what a dropped call costs its caller at each hop's fault site
	// Prefix qualifies every process, thread and site name: "" gives
	// the front "gateway" ("chain-app" under Ideal), tiers "svcN" and
	// sites "hopN"; "r2" gives "r2", "r2.svcN" and "r2.hopN".
	Prefix string
	// SlotBoot picks the dIPC boot strategy. False: the builder drains
	// the machine's engine after each init thread, so all of them have
	// run on return. True: each init instead sleeps to a fixed multiple
	// of replicaBootSlot — deeper tiers first, the front last — which is
	// safe on a cluster shard, whose clock the builder must not advance.
	SlotBoot bool
}

// name qualifies a tier-local name with the chain's prefix.
func (c *tierChain) name(s string) string {
	if c.Prefix == "" {
		return s
	}
	return c.Prefix + "." + s
}

// buildChain wires c on machine m: processes, service workers,
// transports, fault sites, and injector process targets. Each hop's
// transport is passed through wrap (hop index 1..Depth) so callers
// choose the resilience stack (Retrier, Breaker). On return every
// element of transports is populated, unless c.SlotBoot defers the dIPC
// wiring to the boot slots.
func buildChain(c *tierChain, m *kernel.Machine, prm *Params, inj *faults.Injector,
	wrap func(Transport, int) Transport,
) (front *kernel.Process, rt *core.Runtime, transports []Transport) {
	// site names the per-call fault stream of the hop into tier i; a
	// dropped request costs its caller exactly the retry deadline.
	site := func(i int) *faults.CallSite {
		return c.Plan.Site(c.name(fmt.Sprintf("hop%d", i)), c.Deadline)
	}
	svcName := func(i int) string { return c.name(fmt.Sprintf("svc%d", i)) }

	transports = make([]Transport, c.Depth)
	handler := func(i int) Handler {
		return func(t *kernel.Thread, op string, payload any) (any, int) {
			t.ExecUser(c.Work)
			if i < c.Depth {
				if _, err := transports[i].TryCall(t, "hop", payload, c.ReqBytes); err != nil {
					return &RemoteError{Tier: svcName(i + 1), Err: err}, c.ReqBytes
				}
			}
			return payload, c.ReqBytes
		}
	}

	frontName := c.Prefix
	if frontName == "" {
		frontName = "gateway"
		if c.Mode == ModeIdeal {
			frontName = "chain-app"
		}
	}

	switch c.Mode {
	case ModeIdeal:
		// All tiers co-located in one (unsafe) process.
		front = m.NewProcess(frontName)
		inj.Proc(frontName, m, front)
		for i := 1; i <= c.Depth; i++ {
			transports[i-1] = wrap(&DirectTransport{H: handler(i), Faults: site(i)}, i)
		}

	case ModeLinux:
		// One process and one socket worker pool per tier.
		front = m.NewProcess(frontName)
		front.WorkingSet = 48 << 10
		inj.Proc(frontName, m, front)
		for i := 1; i <= c.Depth; i++ {
			proc := m.NewProcess(svcName(i))
			proc.WorkingSet = 96 << 10
			inj.Proc(proc.Name, m, proc)
			st := NewSockTransport(prm, handler(i))
			st.Proc = proc
			st.Faults = site(i)
			transports[i-1] = wrap(st, i)
			for w := 0; w < c.Threads; w++ {
				m.Spawn(proc, fmt.Sprintf("%s-%d", proc.Name, w), nil, st.Worker)
			}
		}

	case ModeDIPC:
		// dIPC processes bridged by proxies: the front thread executes
		// the whole chain in place, so the service tiers need no worker
		// pools. Tiers distrust their callers (microservice style), so
		// every entry requests callee-side protection; importers trust
		// their callees and request none.
		rt = core.NewRuntime(m)
		rt.FoldStubs = true
		front = rt.NewProcess(frontName)
		inj.Proc(frontName, m, front)
		svc := make([]*kernel.Process, c.Depth+1)
		for i := 1; i <= c.Depth; i++ {
			svc[i] = rt.NewProcess(svcName(i))
			inj.Proc(svc[i].Name, m, svc[i])
		}
		calleePolicy := core.RegConfidentiality | core.StackConfIntegrity | core.DCSConfIntegrity
		sig := core.Signature{InRegs: 2, OutRegs: 1}
		// importHop resolves tier i's entry as the transport of hop i.
		importHop := func(t *kernel.Thread, i int) {
			ents, err := rt.MustImport(t, chainPath(i), []core.EntryDesc{{Name: "hop", Sig: sig}})
			if err != nil {
				panic(err)
			}
			tr := NewDIPCTransport(map[string]*core.ImportedEntry{"hop": ents[0]})
			tr.Faults = site(i)
			transports[i-1] = wrap(tr, i)
		}
		// boot starts an init thread at sim-time slot (in SlotBoot mode)
		// or runs it to completion before the next one is spawned.
		boot := func(p *kernel.Process, name string, slot sim.Time, init func(t *kernel.Thread)) {
			m.Spawn(p, name, nil, func(t *kernel.Thread) {
				if c.SlotBoot {
					t.SleepFor(slot * replicaBootSlot)
				}
				mustEnter(rt, t)
				init(t)
			})
			if !c.SlotBoot {
				m.Eng.Run()
			}
		}
		// Wire back to front: tier i imports tier i+1's entry before
		// publishing its own, so every Resolve finds its target.
		for i := c.Depth; i >= 1; i-- {
			i := i
			boot(svc[i], svcName(i)+"-init", sim.Time(c.Depth-i), func(t *kernel.Thread) {
				if i < c.Depth {
					importHop(t, i+1)
				}
				eh, err := rt.EntryRegister(t, rt.DomDefault(t), []core.EntryDesc{
					{Name: "hop", Fn: handlerEntry(handler(i), "hop"), Sig: sig, Policy: calleePolicy},
				})
				if err != nil {
					panic(err)
				}
				if err := rt.Publish(t, chainPath(i), eh); err != nil {
					panic(err)
				}
			})
		}
		boot(front, frontName+"-init", sim.Time(c.Depth), func(t *kernel.Thread) { importHop(t, 1) })

	default:
		panic("oltp: unknown chain mode")
	}
	return front, rt, transports
}
