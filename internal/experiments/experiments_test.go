package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/netpipe"
	"repro/internal/apps/oltp"
	"repro/internal/cost"
	"repro/internal/scenario"
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
	if ratio := float64(low.Mean) / float64(p.FuncCall); ratio < 17 || ratio > 40 {
		t.Fatalf("+proc Low = %.0fx, want ~28x", ratio)
	}
	if ratio := float64(high.Mean) / float64(p.FuncCall); ratio < 33 || ratio > 75 {
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

// TestFigureDefaultsArePaperAxes runs each figure at its default axis
// and requires every series to cover the paper's: argument sizes
// 2^0..2^20 in steps of 2^2 (Fig. 6), transfer sizes 2^0..2^12 (Fig. 7),
// 4..512 threads per component (Fig. 8) and the 1..8 core extension.
// Only the OLTP window is shortened.
func TestFigureDefaultsArePaperAxes(t *testing.T) {
	pow2 := func(to, stride int) []float64 {
		var out []float64
		for p := 0; p <= to; p += stride {
			out = append(out, float64(int(1)<<p))
		}
		return out
	}
	for _, c := range []struct {
		name      string
		overrides map[string]string
		want      []float64
	}{
		{"fig6", nil, pow2(20, 2)},
		{"fig7", nil, pow2(12, 1)},
		{"fig8", map[string]string{"window": "1ms"}, []float64{4, 16, 64, 256, 512}},
		{"fig8scaling", map[string]string{"window": "1ms"}, []float64{1, 2, 4, 6, 8}},
	} {
		res := runScenarioAt(t, c.name, c.overrides)
		for _, s := range res.Series {
			var xs []float64
			for _, p := range s.Points {
				xs = append(xs, p.X)
			}
			if !slices.Equal(xs, c.want) {
				t.Errorf("%s %q: x axis %v, want %v", c.name, s.Label, xs, c.want)
				break
			}
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

func TestRPCRoundTripNearPaperAnchor(t *testing.T) {
	// Fig. 5: Local RPC (=CPU) ≈ 3428× a 2ns call ≈ 6.9us; the intro
	// says "more than 3000× slower than a regular function call".
	if ns := MeasureRPC(true, 1).Mean.Nanoseconds(); ns < 6000 || ns > 8500 {
		t.Fatalf("RPC round trip = %.0fns, want ~6.9us (Fig. 5)", ns)
	}
}

func TestRPCGrowsWithPayload(t *testing.T) {
	small := MeasureRPC(true, 1).Mean
	big := MeasureRPC(true, 64<<10).Mean
	if big < small+cost.Default().Copy(64<<10) {
		t.Fatalf("64KB payload (%v) should cost well above 1B (%v): copies dominate (Fig. 6)", big, small)
	}
}

// TestRPCCallBytes pins the XDR call size: four words, then the
// argument padded to a whole word.
func TestRPCCallBytes(t *testing.T) {
	for _, c := range []struct{ size, want int }{{0, 16}, {1, 20}, {3, 20}, {4, 20}, {5, 24}, {4096, 4112}} {
		if got := rpcCallBytes(c.size); got != c.want {
			t.Errorf("rpcCallBytes(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// renderScenario returns the text dipcbench prints for a registered
// scenario run with overrides.
func renderScenario(t *testing.T, name string, overrides map[string]string) string {
	t.Helper()
	return runScenarioAt(t, name, overrides).RenderText()
}

// requireText fails unless out contains every wanted string.
func requireText(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Render(t *testing.T) {
	r := RunTable1(4096)
	out := renderScenario(t, "table1", map[string]string{"bulk": "4096"})
	requireText(t, out, "CODOMs", "CHERI", "MMP", "Conventional", "total [ns]",
		"CODOMs: S: call + return // D: capability setup")
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
	requireText(t, renderScenario(t, "fig1", map[string]string{"window": "120ms"}),
		"IPC overhead", "idle share [%]")
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
	requireText(t, renderScenario(t, "fig8", map[string]string{"threads": "4,16", "window": "100ms"}),
		"dIPC (in-memory) [ops/min]", "dIPC (in-memory) avg latency [ns]", "dIPC (in-memory) calls [calls/op]",
		"in-memory speedup over Linux: 4 threads dIPC")
}

func TestFig7SmallSweep(t *testing.T) {
	r := RunFig7([]int{4, 4096})
	dipcLat := r.Latency[Fig7Variants[0]] // netpipe.DIPC
	if dipcLat.Y[0] > 3 {
		t.Fatalf("dIPC latency overhead = %.1f%%, want ~1%%", dipcLat.Y[0])
	}
	requireText(t, renderScenario(t, "fig7", nil),
		"latency overhead: dIPC [%]", "bandwidth overhead: dIPC [%]", "latency: Bare (native) [ns]", "4096")
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
	requireText(t, renderScenario(t, "sensitivity", map[string]string{"threads": "8", "window": "100ms"}),
		"calls/op", "break-even slowdown [x]", "measured speedup [x]")
}

// pointAt returns the Y of the point at x in the named series.
func pointAt(t *testing.T, res *scenario.Result, label string, x float64) float64 {
	t.Helper()
	for _, p := range series(t, res, label).Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("%s: series %q has no point at x=%v", res.Scenario, label, x)
	return 0
}

// TestFig8CellSeriesMatchOLTPRun checks one fig8 cell's per-cell series
// against oltp.Run under the same configuration.
func TestFig8CellSeriesMatchOLTPRun(t *testing.T) {
	res := runScenarioAt(t, "fig8", map[string]string{"threads": "8", "window": "20ms"})
	r := oltp.Run(oltp.Config{Mode: oltp.ModeDIPC, InMemory: true, Threads: 8, Window: sim.Millis(20), Seed: 5})
	for label, want := range map[string]float64{
		"dIPC (in-memory)":              r.Throughput,
		"dIPC (in-memory) avg latency":  r.AvgLatency.Nanoseconds(),
		"dIPC (in-memory) user share":   100 * r.UserShare(),
		"dIPC (in-memory) kernel share": 100 * r.KernelShare(),
		"dIPC (in-memory) idle share":   100 * r.IdleShare(),
		"dIPC (in-memory) calls":        r.CallsPerOp,
	} {
		if got := pointAt(t, res, label, 8); got != want {
			t.Errorf("%s at 8 threads = %v, oltp.Run gives %v", label, got, want)
		}
	}
	if r.Throughput == 0 || r.CallsPerOp == 0 {
		t.Fatalf("empty cell: %+v", r)
	}
}

// TestFig7AbsoluteLatencyMatchesNetpipe checks fig7's absolute latency
// series against a direct netpipe run of the same size and rounds.
func TestFig7AbsoluteLatencyMatchesNetpipe(t *testing.T) {
	res := runScenarioAt(t, "fig7", nil)
	for _, v := range []netpipe.Variant{netpipe.Bare, netpipe.DIPC} {
		for _, size := range []int{1, 4096} {
			want := netpipe.Setup(v, 1).RunLatency(size, 60).Nanoseconds()
			if got := pointAt(t, res, "latency: "+v.String(), float64(size)); got != want || got <= 0 {
				t.Errorf("%s at %d B = %v ns, netpipe gives %v ns", v, size, got, want)
			}
		}
	}
}
