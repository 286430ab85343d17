package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchReportRoundTrip(t *testing.T) {
	r := NewBenchReport()
	if r.Schema != BenchSchema || r.GoVersion == "" || r.CPUs < 1 {
		t.Fatalf("report header incomplete: %+v", r)
	}
	calls := 0
	r.TimeRuns("fig2", 3, 0, nil, func() { calls++ })
	r.TimeRuns("clamped", 0, 0, nil, func() { calls++ }) // runs < 1 clamps to 1
	if calls != 4 {
		t.Fatalf("TimeRuns ran fn %d times, want 4", calls)
	}
	if len(r.Results) != 2 || r.Results[0].Runs != 3 || r.Results[1].Runs != 1 {
		t.Fatalf("results = %+v", r.Results)
	}
	if r.Results[0].WallNs < 0 || r.Results[0].NsPerRun < 0 {
		t.Fatalf("negative timing: %+v", r.Results[0])
	}

	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("emitted report is not valid JSON: %v", err)
	}
	if back.Schema != BenchSchema || len(back.Results) != 2 || back.Results[0].Name != "fig2" {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestTimeRunsWarmupAndMedian(t *testing.T) {
	r := NewBenchReport()
	calls := 0
	r.TimeRuns("warm", 3, 2, nil, func() { calls++ })
	if calls != 5 {
		t.Fatalf("fn ran %d times, want 5 (2 warmup + 3 measured)", calls)
	}
	e := r.Results[0]
	if e.Runs != 3 || e.Warmup != 2 {
		t.Fatalf("entry = %+v, want runs=3 warmup=2", e)
	}
	if e.MinNs <= 0 || e.MedianNs < e.MinNs || float64(e.MedianNs) > float64(e.WallNs) {
		t.Fatalf("implausible stats: %+v", e)
	}
	// Negative warmup clamps; runs clamp to 1.
	calls = 0
	r.TimeRuns("clamp", 0, -3, nil, func() { calls++ })
	if calls != 1 || r.Results[1].Runs != 1 || r.Results[1].Warmup != 0 {
		t.Fatalf("clamping broken: calls=%d entry=%+v", calls, r.Results[1])
	}
}

func TestCompareReports(t *testing.T) {
	w250 := map[string]string{"window": "250ms"}
	base := &BenchReport{Results: []BenchEntry{
		{Name: "fig2", MedianNs: 1000},
		{Name: "fig5", MedianNs: 2000},
		{Name: "gone", MedianNs: 500},
		{Name: "fig8", Params: w250, MedianNs: 4000},
	}}
	cur := &BenchReport{Results: []BenchEntry{
		{Name: "fig2", MedianNs: 1300}, // +30%: regression at the 25% bar
		{Name: "fig5", MedianNs: 1000}, // -50%: improvement
		{Name: "new", MedianNs: 700},
		// A 50ms window is a smaller workload, not a faster simulator.
		{Name: "fig8", Params: map[string]string{"window": "50ms"}, MedianNs: 1000},
	}}
	deltas := CompareReports(base, cur)
	if len(deltas) != 5 {
		t.Fatalf("deltas = %+v, want 5 entries", deltas)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["fig2"]; !d.Regressed(25) || d.Pct < 29.9 || d.Pct > 30.1 {
		t.Fatalf("fig2 delta = %+v, want +30%% regression", d)
	}
	if d := byName["fig5"]; d.Regressed(25) || d.Pct > -49.9 {
		t.Fatalf("fig5 delta = %+v, want -50%% improvement", d)
	}
	if d := byName["new"]; d.Comparable() || d.BaseNs != 0 || d.CurNs != 700 {
		t.Fatalf("new delta = %+v", d)
	}
	if d := byName["gone"]; d.Comparable() || d.CurNs != 0 || d.BaseNs != 500 {
		t.Fatalf("gone delta = %+v", d)
	}
	if d := byName["fig8"]; d.Comparable() || !d.ParamsDiffer || d.Regressed(-100) {
		t.Fatalf("fig8 delta = %+v, want params differ, not comparable", d)
	}
	// A regression below the threshold is not flagged.
	if byName["fig2"].Regressed(35) {
		t.Fatal("30% flagged at a 35% threshold")
	}
	// The params-differ entry stays out of the suite median (+30, -50).
	if m := MedianPct(deltas); m < -10.1 || m > -9.9 {
		t.Fatalf("MedianPct = %v, want -10 from fig2 and fig5 only", m)
	}
	// Equal params on both sides stay comparable.
	cur.Results[3].Params = map[string]string{"window": "250ms"}
	if d := CompareReports(base, cur)[3]; !d.Comparable() {
		t.Fatalf("equal params not comparable: %+v", d)
	}
}

func TestLoadBenchReport(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	r := NewBenchReport()
	r.TimeRuns("x", 1, 0, nil, func() {})
	if err := r.WriteFile(good); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchReport(good)
	if err != nil || len(back.Results) != 1 || back.Results[0].Name != "x" {
		t.Fatalf("LoadBenchReport = %+v, %v", back, err)
	}
	// Only the current schema loads; the error names the one found.
	old := filepath.Join(dir, "old.json")
	os.WriteFile(old, []byte(`{"schema":"dipc-bench/v2","results":[{"name":"y","runs":1,"wall_ns":5,"ns_per_run":5}]}`), 0o644)
	if _, err := LoadBenchReport(old); err == nil || !strings.Contains(err.Error(), "dipc-bench/v2") {
		t.Fatalf("v2 load: want an error naming dipc-bench/v2, got %v", err)
	}
	// Non-bench JSON is rejected.
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"schema":"dipc-scenario/v1"}`), 0o644)
	if _, err := LoadBenchReport(bad); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := LoadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFmtNs(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{2.5e9, "2.50s"}, {226.1e6, "226.1ms"}, {97.2e3, "97.2us"}, {42, "42ns"},
	}
	for _, c := range cases {
		if got := FmtNs(c.ns); got != c.want {
			t.Errorf("FmtNs(%v) = %q, want %q", c.ns, got, c.want)
		}
	}
}
