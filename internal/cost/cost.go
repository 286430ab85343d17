// Package cost defines the calibrated cost model that drives the
// simulated machine.
//
// The dIPC paper evaluates on an Intel E3-1220v2 (§7.1, Table 3) and
// reports a handful of hard timing anchors that this model is calibrated
// against:
//
//	function call                < 2 ns           (§2.2)
//	empty Linux system call      ≈ 34 ns          (§2.2)
//	L4 Fiasco.OC IPC (=CPU)      ≈ 474× a call    (§2.2)
//	local RPC                    > 3000× a call   (§1, Fig. 5: 3428×)
//	semaphore IPC (=CPU)         ≈ 757× a call    (Fig. 5)
//	dIPC intra-process Low/High  ≈ 3× / 25×       (Fig. 5)
//	dIPC cross-process Low/High  ≈ 28× / 53×      (Fig. 5)
//
// Every simulated primitive is composed from the constants below; the
// anchors emerge from the composition and are asserted (with tolerance
// bands) by the experiment tests. All constants are expressed as
// sim.Time (picoseconds) and documented in nanoseconds.
package cost

import "repro/internal/sim"

// Params holds every tunable cost in the model. A single Params value is
// plumbed through the machine so experiments can run ablations (e.g.
// "what if the TLS switch were free?", §7.2) by copying and editing it.
type Params struct {
	// ---- Baseline architectural events ----

	// FuncCall is a user-level call+return pair (<2 ns in the paper).
	FuncCall sim.Time
	// SyscallTrap is the syscall instruction plus the entry swapgs.
	SyscallTrap sim.Time
	// SyscallRet is the exit swapgs plus sysret.
	SyscallRet sim.Time
	// SyscallDispatch is the kernel's syscall dispatch trampoline
	// (Fig. 2 block 3). Trap+Ret+Dispatch ≈ 34 ns, the empty-syscall
	// anchor.
	SyscallDispatch sim.Time

	// ---- Scheduling and context switching (Fig. 2 blocks 5/6) ----

	// SchedPickNext is the scheduler's cost to select the next thread
	// and update run-queue bookkeeping.
	SchedPickNext sim.Time
	// CtxSwitchRegs is saving and restoring the full register state of
	// the outgoing/incoming threads (the "state isolation" cost, §2.2).
	CtxSwitchRegs sim.Time
	// CtxSwitchPollution is the second-order cache/TLB/branch-predictor
	// pollution charged per context switch (§2.2: "about 80% of the
	// time is instead spent in software, which introduces second-order
	// overheads").
	CtxSwitchPollution sim.Time
	// CurrentSwitch is switching the per-CPU current process descriptor
	// and the file-descriptor-table pointer (§2.2).
	CurrentSwitch sim.Time
	// PageTableSwitch is the CR3 write itself.
	PageTableSwitch sim.Time
	// TLBRefill is the amortized TLB refill penalty after a page-table
	// switch.
	TLBRefill sim.Time
	// QuantumDefault is the scheduler time slice.
	QuantumDefault sim.Time

	// ---- Cross-CPU costs ----

	// IPISend is issuing an inter-processor interrupt.
	IPISend sim.Time
	// IPIHandle is receiving and dispatching an IPI on the remote CPU.
	IPIHandle sim.Time
	// IdleWake is leaving the idle loop (idle-state exit latency).
	IdleWake sim.Time

	// ---- Kernel service code (Fig. 2 block 4) ----

	// FutexWait is the kernel path of a blocking futex wait (checks,
	// queueing) excluding the context switch itself.
	FutexWait sim.Time
	// FutexWake is the kernel path of a futex wake.
	FutexWake sim.Time
	// PipeKernel is the per-call kernel overhead of a pipe read/write
	// excluding data copies.
	PipeKernel sim.Time
	// SockKernel is the per-call kernel overhead of a UNIX-socket
	// send/recv excluding data copies (higher than pipes: socket
	// buffers, credentials, skb management).
	SockKernel sim.Time
	// L4IPCKernel is the kernel path of one L4-style synchronous IPC
	// invocation: capability lookup plus the direct-switch fast path,
	// excluding trap and page-table switch costs.
	L4IPCKernel sim.Time
	// AtomicOp is a user-level atomic read-modify-write (semaphore fast
	// path).
	AtomicOp sim.Time
	// RPCMarshal is the fixed per-message cost of glibc rpcgen's XDR
	// marshalling or unmarshalling (allocation, field walking), on top
	// of the byte-copy cost.
	RPCMarshal sim.Time
	// RPCDispatch is the server-side request demultiplexing cost
	// (svc_run lookup and stub invocation).
	RPCDispatch sim.Time

	// ---- Memory copies ----

	// CopyFixed is the fixed cost of any copy (call, setup, alignment).
	CopyFixed sim.Time
	// CopyL1BytesPerNs etc. are copy bandwidths by resident level.
	CopyL1BytesPerNs   float64
	CopyL2BytesPerNs   float64
	CopyL3BytesPerNs   float64
	CopyDRAMBytesPerNs float64
	// L1Size/L2Size/L3Size are the capacity boundaries for the copy
	// bandwidth model (E3-1220v2: 32 KB / 256 KB / 8 MB).
	L1Size, L2Size, L3Size int
	// KernelCopyFactor scales copies performed by the kernel across
	// address spaces, which must pin/verify pages first (§7.2: "kernel-
	// level transfers must ensure that pages are mapped").
	KernelCopyFactor float64

	// ---- Cache behaviour ----

	// CacheLineTouch is the cost of bringing one cold cache line.
	CacheLineTouch sim.Time
	// CacheRefillBytesPerNs is the effective bandwidth at which a
	// process re-populates its cached working set after being switched
	// in over a different process. This is the second-order pollution
	// cost of §2.2 at application scale: the micro-benchmarks carry
	// near-zero working sets, while the OLTP tiers declare theirs via
	// Process.WorkingSet. Random-access refill runs well below streaming
	// DRAM bandwidth.
	CacheRefillBytesPerNs float64

	// ---- CODOMs architectural operations (§4) ----

	// CapCreate is creating a capability into a capability register.
	CapCreate sim.Time
	// CapLoadStore is a capability load or store to tagged memory (32 B).
	CapLoadStore sim.Time
	// CapPushPop is a DCS push or pop.
	CapPushPop sim.Time
	// APLCacheLookup is the software lookup of a hardware domain tag in
	// the APL cache (§4.3: "less than a L1 cache hit"; 1–2 cycles).
	APLCacheLookup sim.Time
	// DomainSwitch is the hardware cost of crossing domains via a call
	// (negligible by design: the APL cache check overlaps the pipeline).
	DomainSwitch sim.Time

	// ---- dIPC proxy and stub operations (§5.2.3, §6.1) ----

	// KCSPush/KCSPop maintain the kernel control stack entry on a
	// proxied call/return.
	KCSPush, KCSPop sim.Time
	// StackCheck validates the stack pointer against the thread's
	// assigned stack (P2).
	StackCheck sim.Time
	// StackSwitch switches data stack pointers in the proxy (stack
	// confidentiality+integrity).
	StackSwitch sim.Time
	// DCSAdjust moves the DCS base register (DCS integrity).
	DCSAdjust sim.Time
	// DCSSwitch installs a separate capability stack (DCS conf.+integ.).
	DCSSwitch sim.Time
	// RegSave is saving or restoring one live register in a stub.
	RegSave sim.Time
	// RegZero is zeroing one register in a stub.
	RegZero sim.Time
	// TrackProcessHot is the §6.1.2 hot path: APL-cache hardware-tag
	// lookup, per-thread cache-array index and current swap.
	TrackProcessHot sim.Time
	// TrackProcessWarm is the per-thread tree lookup plus cache-array
	// fill.
	TrackProcessWarm sim.Time
	// TrackProcessCold is the upcall into the target process's
	// management thread (a full syscall round trip plus bookkeeping).
	TrackProcessCold sim.Time
	// TLSSwitch is one wrfsbase (§6.1.2 notes this dominates the proxy;
	// §7.2: optimizing it away would yield 1.54–3.22×).
	TLSSwitch sim.Time

	// ---- Table 1 comparison architectures ----

	// TrapException is a protection-domain crossing implemented as a
	// processor exception (CHERI-style CCall in Table 1).
	TrapException sim.Time
	// PipelineFlush is a full pipeline flush (MMP-style switch).
	PipelineFlush sim.Time
	// MMPTableWrite is writing/invalidating one entry of MMP's
	// privileged protection table.
	MMPTableWrite sim.Time

	// ---- Storage and NIC devices (case studies) ----

	// DiskAccess is one storage access on the on-disk database
	// configuration: reads are served by the warm buffer pool, so in
	// practice this is the transaction-log flush latency of the
	// evaluation machine's HDD (group commit amortizes the full
	// rotational delay).
	DiskAccess sim.Time
	// NICBaseLatency is the Infiniband one-way base latency (§7.3
	// upper-bound scenario; MT26428 ~ 1.3 µs one-way through rsocket).
	NICBaseLatency sim.Time
	// NICBytesPerNs is the NIC streaming bandwidth (10 GigE ≈ 1.25 B/ns
	// wire rate).
	NICBytesPerNs float64
}

// Default returns the model calibrated against the paper's anchors.
func Default() *Params {
	ns := func(v float64) sim.Time { return sim.Nanos(v) }
	return &Params{
		FuncCall:        ns(2),
		SyscallTrap:     ns(11),
		SyscallRet:      ns(13),
		SyscallDispatch: ns(10),

		SchedPickNext:      ns(120),
		CtxSwitchRegs:      ns(90),
		CtxSwitchPollution: ns(180),
		CurrentSwitch:      ns(40),
		PageTableSwitch:    ns(110),
		TLBRefill:          ns(90),
		QuantumDefault:     sim.Millis(1),

		IPISend:   ns(450),
		IPIHandle: ns(650),
		IdleWake:  ns(350),

		FutexWait:   ns(110),
		FutexWake:   ns(95),
		PipeKernel:  ns(320),
		SockKernel:  ns(420),
		L4IPCKernel: ns(150),
		AtomicOp:    ns(5),
		RPCMarshal:  ns(870),
		RPCDispatch: ns(290),

		CopyFixed:          ns(6),
		CopyL1BytesPerNs:   16,
		CopyL2BytesPerNs:   9,
		CopyL3BytesPerNs:   5,
		CopyDRAMBytesPerNs: 2.5,
		L1Size:             32 << 10,
		L2Size:             256 << 10,
		L3Size:             8 << 20,
		KernelCopyFactor:   1.6,

		CacheLineTouch:        ns(1.2),
		CacheRefillBytesPerNs: 8,

		CapCreate:      ns(0.6),
		CapLoadStore:   ns(1.2),
		CapPushPop:     ns(0.8),
		APLCacheLookup: ns(0.7),
		DomainSwitch:   ns(0),

		KCSPush:     ns(1.0),
		KCSPop:      ns(0.8),
		StackCheck:  ns(0.4),
		StackSwitch: ns(4.6),
		DCSAdjust:   ns(0.8),
		DCSSwitch:   ns(3.4),
		RegSave:     ns(0.46),
		RegZero:     ns(0.22),

		TrackProcessHot:  ns(4.5),
		TrackProcessWarm: ns(45),
		TrackProcessCold: ns(2600),
		TLSSwitch:        ns(18),

		TrapException: ns(62),
		PipelineFlush: ns(25),
		MMPTableWrite: ns(35),

		DiskAccess:     sim.Micros(1300),
		NICBaseLatency: sim.Micros(1.3),
		NICBytesPerNs:  1.25,
	}
}

// Copy returns the cost of a user-level memory copy of n bytes whose
// working set competes for the cache hierarchy. The bandwidth degrades at
// the L1/L2/L3 capacity boundaries, which is what produces the kinks the
// paper annotates in Fig. 6.
func (p *Params) Copy(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	// A copy touches source and destination, so the effective working
	// set is twice the transfer size.
	ws := 2 * n
	var bw float64
	switch {
	case ws <= p.L1Size:
		bw = p.CopyL1BytesPerNs
	case ws <= p.L2Size:
		bw = p.CopyL2BytesPerNs
	case ws <= p.L3Size:
		bw = p.CopyL3BytesPerNs
	default:
		bw = p.CopyDRAMBytesPerNs
	}
	return p.CopyFixed + sim.Nanos(float64(n)/bw)
}

// KernelCopy returns the cost of a kernel-mediated cross-address-space
// copy of n bytes (pipe/socket transfers): the kernel must validate and
// map the pages before touching the data.
func (p *Params) KernelCopy(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return p.CopyFixed + sim.Time(float64(p.Copy(n)-p.CopyFixed)*p.KernelCopyFactor)
}
