package oltp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mode selects the isolation configuration of Figures 1 and 8.
type Mode int

// Configurations.
const (
	// ModeLinux is the baseline: each tier an isolated process, UNIX
	// sockets in between, per-tier service thread pools.
	ModeLinux Mode = iota
	// ModeDIPC runs the tiers as dIPC-enabled processes bridged by
	// proxies with asymmetric policies (only PHP trusts the others).
	ModeDIPC
	// ModeIdeal embeds all tiers in one (unsafe) process with plain
	// function calls: the upper bound with all IPC costs removed.
	ModeIdeal
)

// String names the mode like the figures.
func (m Mode) String() string {
	switch m {
	case ModeLinux:
		return "Linux"
	case ModeDIPC:
		return "dIPC"
	case ModeIdeal:
		return "Ideal (unsafe)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config is one benchmark run.
type Config struct {
	Mode     Mode
	InMemory bool // tmpfs database vs on-disk
	Threads  int  // threads per component (4..512 in the paper)
	CPUs     int  // simulated CPU count (defaults to 4, the paper's machine)
	Clients  int  // concurrent driver connections (defaults to Threads)
	Warmup   sim.Time
	Window   sim.Time
	Seed     uint64
	// PrivatePT is the §6.1.3 ablation: dIPC processes keep private
	// page tables, so the scheduler pays CR3 switches and TLB refills
	// whenever it interleaves them — quantifying what the shared
	// global address space buys.
	PrivatePT bool
	// DisableSteal turns off the scheduler's idle rebalancing
	// (ablation of the transient-imbalance effects of §7.4).
	DisableSteal bool
}

// Result is the measured outcome of a run.
type Result struct {
	Config     Config
	Ops        int             // completed operations in the window
	Throughput float64         // operations per minute
	AvgLatency sim.Time        // mean client-observed latency
	Breakdown  stats.Breakdown // machine time over the window
	CallsPerOp float64         // cross-tier calls per operation
}

// UserShare, KernelShare, IdleShare report the Fig. 1 breakdown
// fractions of the measurement window.
func (r *Result) UserShare() float64 {
	return r.Breakdown.Share(stats.BlockUser, stats.BlockStub)
}

// KernelShare is everything privileged: kernel code, syscall paths,
// scheduling, page-table work, and dIPC's proxies/TLS (which run
// privileged but outside the kernel).
func (r *Result) KernelShare() float64 {
	return r.Breakdown.Share(stats.BlockSyscall, stats.BlockDispatch, stats.BlockKernel,
		stats.BlockSched, stats.BlockPT, stats.BlockProxy, stats.BlockTLS)
}

// IdleShare is the idle/IO-wait fraction.
func (r *Result) IdleShare() float64 { return r.Breakdown.Share(stats.BlockIdle) }

// Run executes one OLTP configuration and returns its measurements.
func Run(cfg Config) *Result {
	r, stack := startStack(&cfg)
	defer r.eng.Close()
	bd := measure(r.eng, []*kernel.Machine{r.m}, r.win, nil)
	res := &Result{
		Config:    cfg,
		Ops:       int(r.outcomes.OpsOK),
		Breakdown: bd[0],
	}
	if res.Ops > 0 {
		res.Throughput = float64(res.Ops) / cfg.Window.Seconds() * 60
		res.AvgLatency = r.okLatency / sim.Time(res.Ops)
	}
	if r.completed > 0 {
		res.CallsPerOp = float64(stack.calls) / float64(r.completed)
	}
	return res
}

// startStack fills cfg's defaults and wires its configuration on a new
// rig: the tiers, the web worker pool and the closed-loop clients, ready
// for the engine to run. The caller closes the rig's engine.
func startStack(cfg *Config) (*rig, *Stack) {
	if cfg.Threads <= 0 {
		cfg.Threads = 16
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = cfg.Threads
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sim.Millis(60)
	}
	if cfg.Window == 0 {
		cfg.Window = sim.Millis(250)
	}
	r := newRig(cfg.Seed, cfg.CPUs, GatewayConfig{}, stats.Window{Start: cfg.Warmup, End: cfg.Warmup + cfg.Window})
	r.m.StealOnIdle = !cfg.DisableSteal
	stack := &Stack{Prm: r.prm, DB: NewDB(r.m, r.prm, cfg.InMemory)}
	webProc, rt := buildTiers(r.m, stack, *cfg)

	// Web worker pool: in every configuration the web tier runs
	// cfg.Threads workers accepting from the gateway. In the dIPC and
	// Ideal configurations these workers execute the whole stack in
	// place — the service threads of the other tiers are gone (§2.3).
	r.serve(webProc, rt, "web", cfg.Threads, func(t *kernel.Thread, req *request) error {
		stack.WebHandle(t, req)
		return nil
	})

	// Driver: closed-loop clients living off-machine.
	r.closedLoop(cfg.Clients, cfg.Seed, true)
	return r, stack
}

// buildTiers constructs the per-mode processes and transports, returning
// the process that hosts the web workers and, under dIPC, the runtime
// whose process code domain they enter before calling (the CODOMs
// subject comes from the instruction pointer).
func buildTiers(m *kernel.Machine, stack *Stack, cfg Config) (*kernel.Process, *core.Runtime) {
	prm := stack.Prm
	switch cfg.Mode {
	case ModeIdeal:
		app := m.NewProcess("app")
		stack.DBT = &DirectTransport{H: stack.DBHandler}
		stack.PHPT = &DirectTransport{H: stack.PHPHandler}
		return app, nil

	case ModeLinux:
		webProc := m.NewProcess("apache")
		phpProc := m.NewProcess("php-fpm")
		dbProc := m.NewProcess("mariadb")
		// Per-tier cache working sets: re-populated whenever a tier's
		// worker resumes on a CPU that ran a different process (§2.2's
		// second-order IPC costs; eliminated by in-place execution).
		webProc.WorkingSet = 48 << 10
		phpProc.WorkingSet = 128 << 10
		dbProc.WorkingSet = 192 << 10
		dbT := NewSockTransport(prm, stack.DBHandler)
		phpT := NewSockTransport(prm, stack.PHPHandler)
		stack.DBT = dbT
		stack.PHPT = phpT
		for i := 0; i < cfg.Threads; i++ {
			m.Spawn(dbProc, fmt.Sprintf("mariadb-%d", i), nil, dbT.Worker)
			m.Spawn(phpProc, fmt.Sprintf("php-%d", i), nil, phpT.Worker)
		}
		return webProc, nil

	case ModeDIPC:
		rt := core.NewRuntime(m)
		// §7.4: without compiler backend support, the caller and
		// callee stubs are folded into the proxies assuming all
		// non-volatile registers live.
		rt.FoldStubs = true
		webProc := rt.NewProcess("apache")
		phpProc := rt.NewProcess("php")
		dbProc := rt.NewProcess("libmariadbd")
		if cfg.PrivatePT {
			// Ablation: keep the CODOMs/dIPC semantics (checks still
			// walk the runtime's table) but give each process its own
			// scheduler-visible page table, reintroducing the CR3 and
			// TLB costs the shared global address space eliminates.
			phpProc.PageTable = mem.NewPageTable()
			dbProc.PageTable = mem.NewPageTable()
		}

		// Asymmetric policies (§7.4): only PHP trusts all other
		// components, so php requests no isolation on either side; the
		// web server and the database each request protection.
		dbCalleePolicy := core.RegConfidentiality | core.StackConfIntegrity | core.DCSConfIntegrity
		webCallerPolicy := core.RegIntegrity | core.StackConfIntegrity | core.DCSIntegrity

		// The database registers its entries.
		m.Spawn(dbProc, "mariadb-init", nil, func(t *kernel.Thread) {
			mustEnter(rt, t)
			dom := rt.DomDefault(t)
			eh, err := rt.EntryRegister(t, dom, []core.EntryDesc{
				{Name: "exec", Fn: handlerEntry(stack.DBHandler, "exec"),
					Sig: core.Signature{InRegs: 2, OutRegs: 2}, Policy: dbCalleePolicy},
				{Name: "fetch", Fn: handlerEntry(stack.DBHandler, "fetch"),
					Sig: core.Signature{InRegs: 2, OutRegs: 2}, Policy: dbCalleePolicy},
			})
			if err != nil {
				panic(err)
			}
			if err := rt.Publish(t, "/run/mariadb.sock", eh); err != nil {
				panic(err)
			}
		})
		m.Eng.Run()

		// PHP imports the database (trusting it: no caller policy) and
		// registers its own entries (trusting its callers: no callee
		// policy).
		m.Spawn(phpProc, "php-init", nil, func(t *kernel.Thread) {
			mustEnter(rt, t)
			ents, err := rt.MustImport(t, "/run/mariadb.sock", []core.EntryDesc{
				{Name: "exec", Sig: core.Signature{InRegs: 2, OutRegs: 2}},
				{Name: "fetch", Sig: core.Signature{InRegs: 2, OutRegs: 2}},
			})
			if err != nil {
				panic(err)
			}
			stack.DBT = NewDIPCTransport(map[string]*core.ImportedEntry{
				"exec": ents[0], "fetch": ents[1],
			})
			var descs []core.EntryDesc
			for _, name := range phpOps {
				descs = append(descs, core.EntryDesc{
					Name: name, Fn: handlerEntry(stack.PHPHandler, name),
					Sig: core.Signature{InRegs: 2, OutRegs: 1},
				})
			}
			eh, err := rt.EntryRegister(t, rt.DomDefault(t), descs)
			if err != nil {
				panic(err)
			}
			if err := rt.Publish(t, "/run/php.sock", eh); err != nil {
				panic(err)
			}
		})
		m.Eng.Run()

		// The web server imports PHP, requesting its own protection.
		m.Spawn(webProc, "apache-init", nil, func(t *kernel.Thread) {
			mustEnter(rt, t)
			var descs []core.EntryDesc
			for _, name := range phpOps {
				descs = append(descs, core.EntryDesc{
					Name: name, Sig: core.Signature{InRegs: 2, OutRegs: 1},
					Policy: webCallerPolicy,
				})
			}
			ents, err := rt.MustImport(t, "/run/php.sock", descs)
			if err != nil {
				panic(err)
			}
			entries := make(map[string]*core.ImportedEntry, len(phpOps))
			for i, name := range phpOps {
				entries[name] = ents[i]
			}
			stack.PHPT = NewDIPCTransport(entries)
		})
		m.Eng.Run()
		return webProc, rt

	default:
		panic("oltp: unknown mode")
	}
}

// phpOps lists the interpreter tier's exported entry points (the
// FastCGI exchange verbs).
var phpOps = []string{"begin", "params", "run", "stdout", "end"}

// mustEnter is a panicking EnterProcessCode for setup threads.
func mustEnter(rt *core.Runtime, t *kernel.Thread) {
	if _, err := rt.EnterProcessCode(t); err != nil {
		panic(err)
	}
}
