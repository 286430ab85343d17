// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation, one testing.B benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// The benchmarks report the simulated quantities the paper plots via
// b.ReportMetric (simulated nanoseconds, ops/min, overhead percentages),
// alongside the usual wall-clock cost of running the simulation itself.
// The Run* sweeps fan their independent simulation points out over the
// experiments package's worker pool (one worker per CPU by default), so
// the wall-clock numbers reflect the parallel harness; results are
// identical to the sequential path.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/archcmp"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// metric turns a figure label into a whitespace-free ReportMetric unit.
func metric(prefix, label string) string {
	r := strings.NewReplacer(" ", "", "(", "", ")", "", "=", "eq", "!", "n")
	return prefix + r.Replace(label)
}

// BenchmarkAnchors regenerates the §2.2 scalar anchors: a <2ns function
// call and a ~34ns empty system call.
func BenchmarkAnchors(b *testing.B) {
	var fn, sys float64
	for i := 0; i < b.N; i++ {
		fn = experiments.MeasureFunc().Mean.Nanoseconds()
		sys = experiments.MeasureSyscall().Mean.Nanoseconds()
	}
	b.ReportMetric(fn, "simns/funccall")
	b.ReportMetric(sys, "simns/syscall")
}

// BenchmarkTable1 regenerates Table 1: best-case round-trip domain
// switch cost per architecture.
func BenchmarkTable1(b *testing.B) {
	p := cost.Default()
	var rows []archcmp.Result
	for i := 0; i < b.N; i++ {
		rows = archcmp.Compare(p, 4096)
	}
	for _, r := range rows {
		b.ReportMetric(r.SwitchCost.Nanoseconds(), metric("simns-switch/", r.Arch.String()))
	}
}

// BenchmarkFig1 regenerates Figure 1: the OLTP time breakdown and the
// Linux-vs-Ideal IPC overhead factor (paper: 1.92x).
func BenchmarkFig1(b *testing.B) {
	var r *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig1(sim.Millis(120))
	}
	b.ReportMetric(r.Speedup(), "x-ipc-overhead")
	b.ReportMetric(100*r.Linux.IdleShare(), "pct-linux-idle")
	b.ReportMetric(100*r.Ideal.IdleShare(), "pct-ideal-idle")
}

// BenchmarkFig2 regenerates Figure 2: the time breakdown of the classic
// IPC primitives with a one-byte argument.
func BenchmarkFig2(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig2()
	}
	for _, bar := range r.Bars {
		b.ReportMetric(bar.Mean.Nanoseconds(), metric("simns/", bar.Label))
	}
}

// BenchmarkFig5 regenerates Figure 5 and its headline ratios (paper:
// 64.12x vs local RPC, 8.87x vs L4).
func BenchmarkFig5(b *testing.B) {
	var r *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig5()
	}
	vsRPC, vsL4, spread := r.Headlines()
	b.ReportMetric(vsRPC, "x-vs-rpc")
	b.ReportMetric(vsL4, "x-vs-l4")
	b.ReportMetric(spread, "x-policy-spread")
}

// BenchmarkFig6 regenerates Figure 6: the argument-size sweep at five
// sizes (`dipcbench run fig6` runs the paper's 2^0..2^20 axis).
func BenchmarkFig6(b *testing.B) {
	sizes := []int{1, 256, 4096, 65536, 1 << 20}
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig6(sizes)
	}
	for _, s := range r.Series {
		switch s.Label {
		case "Local RPC (!=CPU)":
			b.ReportMetric(s.Y[len(s.Y)-1], "simns-added/rpc-1MB")
		case "dIPC - Low (=CPU;+proc)":
			b.ReportMetric(s.Y[len(s.Y)-1], "simns-added/dipc-1MB")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: driver-isolation latency and
// bandwidth overheads (reduced size grid).
func BenchmarkFig7(b *testing.B) {
	sizes := []int{4, 256, 4096}
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig7(sizes)
	}
	for v, s := range r.Latency {
		b.ReportMetric(s.Y[0], metric("pct-lat/", v.String()))
	}
}

// BenchmarkFig8OnDisk regenerates the on-disk half of Figure 8 at a
// reduced thread grid (`dipcbench run fig8` runs 4..512).
func BenchmarkFig8OnDisk(b *testing.B) {
	benchFig8(b, false)
}

// BenchmarkFig8InMemory regenerates the in-memory half of Figure 8.
func BenchmarkFig8InMemory(b *testing.B) {
	benchFig8(b, true)
}

func benchFig8(b *testing.B, inMem bool) {
	threads := []int{4, 16}
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8(inMem, threads, sim.Millis(120))
	}
	for _, th := range threads {
		lin := r.Throughput(oltp.ModeLinux, th)
		dip := r.Throughput(oltp.ModeDIPC, th)
		if lin > 0 {
			b.ReportMetric(dip/lin, "x-dipc-speedup/T="+strconv.Itoa(th))
		}
	}
}

// BenchmarkFig8Scaling regenerates the throughput-vs-cores extension of
// Figure 8: the three stacks on 1..4 simulated CPUs at a fixed thread
// count (`dipcbench run fig8scaling` runs the 1..8 axis).
func BenchmarkFig8Scaling(b *testing.B) {
	cpus := []int{1, 2, 4}
	var r *experiments.Fig8ScalingResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunFig8Scaling(cpus, 8, sim.Millis(100))
	}
	for _, nc := range cpus {
		lin := r.Throughput(oltp.ModeLinux, nc)
		dip := r.Throughput(oltp.ModeDIPC, nc)
		if lin > 0 {
			b.ReportMetric(dip/lin, "x-dipc-speedup/C="+strconv.Itoa(nc))
		}
	}
	b.ReportMetric(r.ScalingFactor(oltp.ModeDIPC), "x-dipc-scaling")
}

// BenchmarkSensitivity regenerates the §7.5 analysis (paper: calls could
// be 14x slower; worst-case capability traffic leaves 1.59x).
func BenchmarkSensitivity(b *testing.B) {
	var r *experiments.SensitivityResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunSensitivity(8, sim.Millis(100))
	}
	b.ReportMetric(r.BreakEvenX, "x-breakeven")
	b.ReportMetric(r.CallsPerOp, "calls/op")
	b.ReportMetric(r.SpeedupWithCap, "x-with-cap-overhead")
}

// BenchmarkTLSAblation regenerates the §7.2 TLS-switch ablation (paper:
// optimizing the TLS switch yields 1.54x-3.22x).
func BenchmarkTLSAblation(b *testing.B) {
	var r *experiments.TLSAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunTLSAblation()
	}
	b.ReportMetric(r.LowSpeedup(), "x-low-policy")
	b.ReportMetric(r.HighSpeedup(), "x-high-policy")
}

// BenchmarkSharedPTAblation quantifies the shared page table (§6.1.3).
func BenchmarkSharedPTAblation(b *testing.B) {
	var r *experiments.SharedPTAblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.RunSharedPTAblation(8, sim.Millis(100))
	}
	b.ReportMetric(100*r.Penalty(), "pct-private-pt-penalty")
}

// BenchmarkProxyCall measures the raw simulated dIPC cross-process call
// (the 28x/53x bars of Fig. 5) — also a wall-clock benchmark of the
// simulator's proxy path itself.
func BenchmarkProxyCall(b *testing.B) {
	var low, high float64
	for i := 0; i < b.N; i++ {
		low = experiments.MeasureDIPC(true, false, 1).Mean.Nanoseconds()
		high = experiments.MeasureDIPC(true, true, 1).Mean.Nanoseconds()
	}
	b.ReportMetric(low, "simns/low")
	b.ReportMetric(high, "simns/high")
}
