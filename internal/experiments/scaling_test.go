package experiments

import (
	"testing"

	"repro/internal/apps/oltp"
	"repro/internal/sim"
)

func TestFig8ScalingShape(t *testing.T) {
	cpus := []int{1, 2, 4}
	window := sim.Millis(80)
	params := map[string]string{"cpus": "1,2,4", "threads": "8", "window": "80ms"}
	if testing.Short() {
		cpus = []int{1, 4}
		window = sim.Millis(40)
		params["cpus"], params["window"] = "1,4", "40ms"
	}
	r := RunFig8Scaling(cpus, 8, window)
	if len(r.Cells) != 3*len(cpus) {
		t.Fatalf("got %d cells, want %d", len(r.Cells), 3*len(cpus))
	}
	for _, nc := range cpus {
		lin := r.Throughput(oltp.ModeLinux, nc)
		dip := r.Throughput(oltp.ModeDIPC, nc)
		ide := r.Throughput(oltp.ModeIdeal, nc)
		if !(lin > 0 && dip > 0 && ide > 0) {
			t.Fatalf("cores=%d: zero throughput (linux=%.0f dipc=%.0f ideal=%.0f)",
				nc, lin, dip, ide)
		}
		// dIPC keeps its advantage at every core count: the baseline's
		// extra cores also run its IPC software overheads.
		if dip <= lin {
			t.Errorf("cores=%d: dIPC (%.0f) not faster than Linux (%.0f)", nc, dip, lin)
		}
		if ide < dip*0.9 {
			t.Errorf("cores=%d: ideal (%.0f) below dIPC (%.0f)", nc, ide, dip)
		}
	}
	// More cores must help every mode across the sweep.
	for _, mode := range []oltp.Mode{oltp.ModeLinux, oltp.ModeDIPC, oltp.ModeIdeal} {
		lo := r.Throughput(mode, cpus[0])
		hi := r.Throughput(mode, cpus[len(cpus)-1])
		if hi <= lo {
			t.Errorf("%s: throughput did not scale with cores (%.0f -> %.0f)", mode, lo, hi)
		}
		if f := r.ScalingFactor(mode); f <= 1 {
			t.Errorf("%s: scaling factor %.2f, want > 1", mode, f)
		}
	}
	requireText(t, renderScenario(t, "fig8scaling", params), "dIPC [ops/min]", "scaling across the sweep")
}

func TestFig8ScalingDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full default core axis is slow")
	}
	r := RunFig8Scaling(nil, 0, sim.Millis(30))
	if r.Threads != 16 {
		t.Fatalf("default threads = %d, want 16", r.Threads)
	}
	if len(r.Cells) != 3*len(Fig8ScalingCPUs) {
		t.Fatalf("got %d cells, want %d", len(r.Cells), 3*len(Fig8ScalingCPUs))
	}
}
