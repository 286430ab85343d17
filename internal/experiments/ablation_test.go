package experiments

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestTLSAblation(t *testing.T) {
	r := RunTLSAblation()
	// §7.2: "The TLS segment switch in dIPC takes a large part of the
	// time, so optimizing it would substantially improve performance
	// (1.54x–3.22x)". The Low policy benefits most (the switch is a
	// larger share of a thinner proxy).
	low, high := r.LowSpeedup(), r.HighSpeedup()
	if low < 1.54 || low > 3.6 {
		t.Fatalf("Low-policy TLS speedup = %.2fx, want within the paper's 1.54-3.22 band", low)
	}
	if high < 1.2 || high > 2.2 {
		t.Fatalf("High-policy TLS speedup = %.2fx, want toward the 1.54 end", high)
	}
	if low <= high {
		t.Fatalf("Low (%.2fx) must benefit more than High (%.2fx)", low, high)
	}
	requireText(t, renderScenario(t, "ablation-tls", nil),
		"Low no-TLS", "High no-TLS", "Low speedup without TLS switch")
}

func TestSharedPTAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two on-disk OLTP windows are slow")
	}
	r := RunSharedPTAblation(8, sim.Millis(100))
	// The shared table eliminates page-table switches entirely...
	if got := r.SharedPT.Breakdown[stats.BlockPT]; got != 0 {
		t.Fatalf("shared-table run charged %v of page-table switches", got)
	}
	// ...while private tables reintroduce them whenever the scheduler
	// interleaves migrated threads.
	if r.PrivatePT.Breakdown[stats.BlockPT] == 0 {
		t.Fatal("private-table ablation charged no page-table switches")
	}
	// Throughput must not improve; at dIPC's low switch rate the
	// penalty is small — itself a finding: in-place calls barely
	// context-switch, so the shared table's win here is secondary to
	// eliminating the switches themselves.
	if r.PrivatePT.Throughput > r.SharedPT.Throughput*1.01 {
		t.Fatalf("private tables should not beat shared: %.0f vs %.0f",
			r.PrivatePT.Throughput, r.SharedPT.Throughput)
	}
	requireText(t, renderScenario(t, "ablation-sharedpt", map[string]string{"threads": "8", "window": "100ms"}),
		"shared table", "private table", "private-table penalty")
}

func TestStealAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two OLTP windows are slow")
	}
	r := RunStealAblation(8, sim.Millis(100))
	// Without idle stealing, wake-affinity clustering leaves CPUs idle
	// while work queues elsewhere: idle share rises and throughput
	// drops (or at best stays equal).
	if r.NoSteal.IdleShare() < r.WithSteal.IdleShare() {
		t.Fatalf("no-steal idle %.1f%% below with-steal %.1f%%",
			100*r.NoSteal.IdleShare(), 100*r.WithSteal.IdleShare())
	}
	if r.NoSteal.Throughput > r.WithSteal.Throughput*1.02 {
		t.Fatalf("removing idle stealing should not help throughput: %.0f vs %.0f",
			r.NoSteal.Throughput, r.WithSteal.Throughput)
	}
	requireText(t, renderScenario(t, "ablation-steal", map[string]string{"threads": "8", "window": "100ms"}),
		"with steal", "no steal", "idle share [%]")
}
