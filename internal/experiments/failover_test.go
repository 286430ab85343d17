package experiments

import (
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runScenarioAt runs a registered scenario with overrides and returns
// the result.
func runScenarioAt(t *testing.T, name string, overrides map[string]string) *scenario.Result {
	t.Helper()
	s, ok := scenario.Default.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	cfg, err := scenario.NewConfig(s, overrides)
	if err != nil {
		t.Fatalf("%s: config: %v", name, err)
	}
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return res
}

// seriesY returns the Y of the sole point of the named series.
func seriesY(t *testing.T, res *scenario.Result, label string) float64 {
	t.Helper()
	for _, s := range res.Series {
		if s.Label == label {
			if len(s.Points) == 0 {
				t.Fatalf("%s: series %q has no points", res.Scenario, label)
			}
			return s.Points[0].Y
		}
	}
	t.Fatalf("%s: no series %q (have %v)", res.Scenario, label, seriesLabels(res))
	return 0
}

func seriesLabels(res *scenario.Result) []string {
	out := make([]string, len(res.Series))
	for i, s := range res.Series {
		out[i] = s.Label
	}
	return out
}

// TestFailoverKillAcceptance pins the replication payoff at the
// scenario level: under the same kill plan, the replicated set's
// availability strictly exceeds the single instance's for both Linux
// and dIPC, and the run produces detector evidence (a detection with no
// false suspicions) plus a populated breaker timeline.
func TestFailoverKillAcceptance(t *testing.T) {
	res := runScenarioAt(t, "failover-kill", map[string]string{
		"window": "8ms", "warmup": "2ms", "killat": "3ms", "restartat": "5ms",
	})
	for _, mode := range []string{"Linux", "dIPC"} {
		rep := seriesY(t, res, mode+" replicated availability")
		solo := seriesY(t, res, mode+" single availability")
		if rep <= solo {
			t.Errorf("%s: replicated availability %.1f%% not above single-instance %.1f%%", mode, rep, solo)
		}
		if fo := seriesY(t, res, mode+" failovers"); fo == 0 {
			t.Errorf("%s: no failovers recorded", mode)
		}
		if dl := seriesY(t, res, mode+" detection latency"); dl <= 0 {
			t.Errorf("%s: no detection latency measured", mode)
		}
	}
	breakers := 0
	for _, s := range res.Series {
		if strings.Contains(s.Label, "breaker state") && len(s.Points) > 0 {
			breakers++
		}
	}
	if breakers == 0 {
		t.Errorf("no breaker transition timeline exported (series: %v)", seriesLabels(res))
	}
	for _, note := range res.Notes {
		if strings.Contains(note, "false") && !strings.Contains(note, "0 false") {
			t.Errorf("clean kill plan produced false suspicions: %q", note)
		}
	}
}

// TestFailoverHedgeAcceptance pins hedging's payoff at the scenario
// level: with one slow replica, every swept hedge fraction beats the
// no-hedge round-robin baseline at p999.
func TestFailoverHedgeAcceptance(t *testing.T) {
	res := runScenarioAt(t, "failover-hedge", map[string]string{
		"window": "8ms", "warmup": "2ms",
	})
	base := seriesY(t, res, "no-hedge p999")
	for _, s := range res.Series {
		if s.Label != "hedged p999" {
			continue
		}
		for _, p := range s.Points {
			if p.Y >= base {
				t.Errorf("hedge at %.0f%% of deadline: p999 %.0fus not below no-hedge %.0fus", p.X, p.Y, base)
			}
		}
	}
	if wins := seriesY(t, res, "hedge win rate"); wins <= 0 {
		t.Errorf("no hedge ever won against the slow replica")
	}
}

// TestFailoverFlapFalsePositives pins the detector-quality story: a
// flapping link to a live replica produces suspicions that are all
// false positives, and a longer timeout produces no more suspicions
// than a shorter one.
func TestFailoverFlapFalsePositives(t *testing.T) {
	res := runScenarioAt(t, "failover-flap", map[string]string{
		"window": "8ms", "warmup": "2ms",
	})
	var susp, fp []float64
	for _, s := range res.Series {
		switch s.Label {
		case "suspicions":
			for _, p := range s.Points {
				susp = append(susp, p.Y)
			}
		case "false-positive share":
			for _, p := range s.Points {
				fp = append(fp, p.Y)
			}
		}
	}
	if len(susp) < 2 {
		t.Fatalf("timeout sweep produced %d cells, want >= 2", len(susp))
	}
	for i, n := range susp {
		if n == 0 {
			t.Errorf("timeout cell %d: flapping link never tripped the detector", i)
		} else if fp[i] != 100 {
			t.Errorf("timeout cell %d: %.0f%% false positives, want 100%% (replica never died)", i, fp[i])
		}
	}
	if susp[len(susp)-1] > susp[0] {
		t.Errorf("longer timeout produced more suspicions (%v) than shorter (%v)", susp[len(susp)-1], susp[0])
	}
}

// TestFailoverInputErrorsNameTheParameter requires the replicated-rack
// limits to surface as config errors naming the offending parameter,
// not as a panic from the run.
func TestFailoverInputErrorsNameTheParameter(t *testing.T) {
	s, ok := scenario.Default.Lookup("failover-kill")
	if !ok {
		t.Fatal("failover-kill not registered")
	}
	for _, bad := range [][2]string{{"clients", "5000"}, {"depth", "30"}, {"warmup", "500us"}} {
		key, val := bad[0], bad[1]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s=%s panicked: %v", key, val, r)
				}
			}()
			_, err := scenario.NewConfig(s, map[string]string{key: val})
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Errorf("%s=%s: want an error naming %q, got %v", key, val, key, err)
			}
		}()
	}
}
