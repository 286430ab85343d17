package experiments

import (
	"strings"
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestAnchors(t *testing.T) {
	f := MeasureFunc()
	if ns := f.Mean.Nanoseconds(); ns > 2.01 {
		t.Fatalf("function call = %.2fns, paper says under 2ns", ns)
	}
	s := MeasureSyscall()
	if ns := s.Mean.Nanoseconds(); ns < 30 || ns > 38 {
		t.Fatalf("syscall = %.1fns, want ~34ns", ns)
	}
}

func TestFig5Headlines(t *testing.T) {
	r := RunFig5()
	vsRPC, vsL4, spread := r.Headlines()
	// Paper: 64.12x vs local RPC, 8.87x vs L4, 8.47x policy spread.
	if vsRPC < 45 || vsRPC > 90 {
		t.Fatalf("dIPC vs RPC = %.1fx, want ~64x", vsRPC)
	}
	if vsL4 < 6 || vsL4 > 13 {
		t.Fatalf("dIPC vs L4 = %.1fx, want ~8.9x", vsL4)
	}
	if spread < 5 || spread > 13 {
		t.Fatalf("Low/High spread = %.1fx, want ~8.5x", spread)
	}
}

func TestFig5Ordering(t *testing.T) {
	r := RunFig5()
	get := func(label string) sim.Time {
		ms, ok := r.Find(label)
		if !ok {
			t.Fatalf("missing bar %q", label)
		}
		return ms.Mean
	}
	fn := get("Function call")
	sys := get("Syscall")
	dipcLow := get("dIPC - Low (=CPU)")
	dipcHigh := get("dIPC - High (=CPU)")
	dipcProcLow := get("dIPC - Low (=CPU;+proc)")
	dipcProcHigh := get("dIPC - High (=CPU;+proc)")
	sem := get("Sem. (=CPU)")
	pipe := get("Pipe (=CPU)")
	rpc := get("Local RPC (=CPU)")
	userRPC := get("dIPC - User RPC (!=CPU)")
	rpcCross := get("Local RPC (!=CPU)")

	// Fig. 5's ordering relations.
	if !(fn < dipcLow && dipcLow < sys) {
		t.Fatalf("want func (%v) < dIPC-Low (%v) < syscall (%v)", fn, dipcLow, sys)
	}
	if !(dipcHigh > sys && dipcHigh < dipcProcHigh) {
		t.Fatalf("dIPC-High (%v) should sit between syscall (%v) and +proc High (%v)",
			dipcHigh, sys, dipcProcHigh)
	}
	if !(dipcProcLow < dipcProcHigh && dipcProcHigh < sem) {
		t.Fatalf("want +proc Low (%v) < +proc High (%v) << sem (%v)", dipcProcLow, dipcProcHigh, sem)
	}
	if !(sem < pipe && pipe < rpc) {
		t.Fatalf("want sem (%v) < pipe (%v) < RPC (%v)", sem, pipe, rpc)
	}
	// §7.2: user-level RPC on dIPC is almost twice as fast as RPC.
	if f := float64(rpcCross) / float64(userRPC); f < 1.4 || f > 2.6 {
		t.Fatalf("User RPC advantage = %.2fx, want ~1.75x (Fig. 5)", f)
	}
}

func TestFig5CrossProcAnchors(t *testing.T) {
	r := RunFig5()
	p := cost.Default()
	low, _ := r.Find("dIPC - Low (=CPU;+proc)")
	high, _ := r.Find("dIPC - High (=CPU;+proc)")
	// Paper: 28x and 53x a function call.
	if ratio := low.Ratio(p); ratio < 17 || ratio > 40 {
		t.Fatalf("+proc Low = %.0fx, want ~28x", ratio)
	}
	if ratio := high.Ratio(p); ratio < 33 || ratio > 75 {
		t.Fatalf("+proc High = %.0fx, want ~53x", ratio)
	}
	sem, _ := r.Find("Sem. (=CPU)")
	// Paper: dIPC+proc-High beats semaphores by ~14x.
	if f := float64(sem.Mean) / float64(high.Mean); f < 9 || f > 21 {
		t.Fatalf("+proc High vs sem = %.1fx, want ~14x", f)
	}
}

func TestFig2SoftwareDominatesProcessSwitch(t *testing.T) {
	// §2.2: "About 80% of the time is instead spent in software" —
	// blocks 2 and 6 (the bare-metal switch) must be a small minority
	// of the same-CPU semaphore round trip.
	r := RunFig2()
	var sem Measurement
	for _, b := range r.Bars {
		if b.Label == "Sem. (=CPU)" {
			sem = b
		}
	}
	var total, hw sim.Time
	for _, bd := range sem.PerCPU {
		total += bd.Busy()
		hw += bd[stats.BlockSyscall] + bd[stats.BlockPT]
	}
	if total == 0 {
		t.Fatal("no accounting for semaphore bar")
	}
	swShare := 1 - float64(hw)/float64(total)
	if swShare < 0.65 {
		t.Fatalf("software share = %.0f%%, want ~80%% (§2.2)", 100*swShare)
	}
}

func TestFig2CrossCPUIdle(t *testing.T) {
	// Cross-CPU semaphore IPC leaves a CPU idle while the peer works
	// (Fig. 2 block 7 appears only in the !=CPU bars).
	r := RunFig2()
	for _, b := range r.Bars {
		var idle sim.Time
		for _, bd := range b.PerCPU {
			idle += bd[stats.BlockIdle]
		}
		cross := strings.Contains(b.Label, "!=CPU")
		if cross && idle == 0 {
			t.Fatalf("%s: expected idle time on the waiting CPU", b.Label)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	r := RunFig6([]int{1, 4096, 262144})
	series := make(map[string]stats.Series)
	for _, s := range r.Series {
		series[s.Label] = s
	}
	rpc, ok := series["Local RPC (!=CPU)"]
	if !ok {
		t.Fatal("missing RPC series")
	}
	dipc, sem, sys := series["dIPC - Low (=CPU;+proc)"], series["Sem. (!=CPU)"], series["Syscall"]
	// Copy-based primitives grow with size; the paper's "distance
	// grows with size".
	if !(rpc.Y[2] > rpc.Y[0]*2) {
		t.Fatalf("RPC added time should grow strongly with size: %v", rpc.Y)
	}
	if !(sem.Y[2] > sem.Y[0]) {
		t.Fatalf("sem added time should grow: %v", sem.Y)
	}
	// dIPC passes by reference: flat across 18 doublings.
	if dipc.Y[2] > dipc.Y[0]*1.5+50 {
		t.Fatalf("dIPC added time should stay flat: %v", dipc.Y)
	}
	// Syscalls pass a pointer: flat too.
	if sys.Y[2] > sys.Y[0]*1.2+10 {
		t.Fatalf("syscall should stay flat: %v", sys.Y)
	}
	// And the gap between RPC and dIPC widens with size.
	if rpc.Y[2]-dipc.Y[2] <= rpc.Y[0]-dipc.Y[0] {
		t.Fatal("distance between RPC and dIPC must grow with size (Fig. 6)")
	}
}

func TestTable1Render(t *testing.T) {
	r := RunTable1(4096)
	out := r.Render()
	for _, want := range []string{"CODOMs", "CHERI", "MMP", "Conventional"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %s:\n%s", want, out)
		}
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestFig1Shape(t *testing.T) {
	r := RunFig1(sim.Millis(120))
	if s := r.Speedup(); s < 1.5 || s > 3.4 {
		t.Fatalf("Fig. 1 IPC overhead = %.2fx, want ~1.92x", s)
	}
	if r.Linux.IdleShare() < 0.10 {
		t.Fatalf("Linux idle = %.1f%%, want double digits", 100*r.Linux.IdleShare())
	}
	if r.Ideal.IdleShare() > 0.05 {
		t.Fatalf("Ideal idle = %.1f%%, want ~1%%", 100*r.Ideal.IdleShare())
	}
	if !strings.Contains(r.Render(), "IPC overhead") {
		t.Fatal("render incomplete")
	}
}

func TestFig8SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the OLTP mode/thread sweep is slow; the harness tests cover a trimmed Fig. 8 under -short")
	}
	r := RunFig8(true, []int{4, 16}, sim.Millis(100))
	for _, th := range []int{4, 16} {
		lin := r.Throughput(oltp.ModeLinux, th)
		dip := r.Throughput(oltp.ModeDIPC, th)
		ide := r.Throughput(oltp.ModeIdeal, th)
		if !(lin > 0 && dip > lin && ide >= dip*0.94) {
			t.Fatalf("T=%d: linux=%.0f dipc=%.0f ideal=%.0f", th, lin, dip, ide)
		}
		if dip/ide < 0.94 {
			t.Fatalf("T=%d: dIPC efficiency %.1f%% below 94%%", th, 100*dip/ide)
		}
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Fatal("render incomplete")
	}
}

func TestFig7SmallSweep(t *testing.T) {
	r := RunFig7([]int{4, 4096})
	dipcLat := r.Latency[Fig7Variants[0]] // netpipe.DIPC
	if dipcLat.Y[0] > 3 {
		t.Fatalf("dIPC latency overhead = %.1f%%, want ~1%%", dipcLat.Y[0])
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Fatal("render incomplete")
	}
}

func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("three OLTP windows are slow")
	}
	r := RunSensitivity(8, sim.Millis(100))
	if r.CallsPerOp < 20 {
		t.Fatalf("calls/op = %.1f", r.CallsPerOp)
	}
	// Paper: calls could be up to 14x slower before voiding the
	// benefit; our scale differs but the headroom must be substantial.
	if r.BreakEvenX < 3 {
		t.Fatalf("break-even slowdown = %.1fx, want >3x headroom", r.BreakEvenX)
	}
	// Paper: worst-case capability traffic still leaves ≥1.59x.
	if r.SpeedupWithCap <= 1.2 {
		t.Fatalf("speedup with capability overhead = %.2fx, want >1.2x", r.SpeedupWithCap)
	}
	if r.Speedup <= 1.3 {
		t.Fatalf("measured speedup = %.2fx", r.Speedup)
	}
	if !strings.Contains(r.Render(), "Sensitivity") {
		t.Fatal("render incomplete")
	}
}
