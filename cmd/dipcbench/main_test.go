package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func TestRunAnchorsAndTable1(t *testing.T) {
	var out, errb bytes.Buffer
	for _, name := range []string{"anchors", "table1"} {
		if code := run([]string{"run", name}, &out, &errb); code != 0 {
			t.Fatalf("run %s: exit %d, stderr: %s", name, code, errb.String())
		}
	}
	got := out.String()
	for _, want := range []string{"== scenario anchors ==", "Function call", "== scenario table1 ==", "CODOMs"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// -engine-stats appends the engines' counts after a scenario's result
// and changes nothing before them; the counts are the same at any
// -parallel width.
func TestRunEngineStats(t *testing.T) {
	render := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		return out.String()
	}
	plain := render("run", "overload-knee", "-p", "window=2ms", "-p", "warmup=1ms")
	seq := render("-parallel", "1", "run", "overload-knee", "-p", "window=2ms", "-p", "warmup=1ms", "-engine-stats")
	par := render("-parallel", "4", "run", "overload-knee", "-p", "window=2ms", "-p", "warmup=1ms", "-engine-stats")
	result, stats, ok := strings.Cut(seq, "engine stats (overload-knee): dispatched ")
	if !ok || result != plain {
		t.Fatalf("-engine-stats output does not extend the plain result:\n%s\nvs\n%s", seq, plain)
	}
	if !strings.Contains(stats, ", procs spawned ") || seq != par {
		t.Fatalf("engine stats %q; at -parallel 4:\n%s", stats, par)
	}
}

func TestRunFig8ScalingExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("OLTP sweep is slow")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"run", "fig8scaling", "-p", "window=40ms"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"== scenario fig8scaling ==", "dIPC [ops/min]", "scaling across the sweep"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in scaling table:\n%s", want, out.String())
		}
	}
}

func TestRunParallelFlagMatchesSequential(t *testing.T) {
	render := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	seq := render("-parallel", "1", "run", "fig2")
	par := render("-parallel", "4", "run", "fig2")
	if seq != par {
		t.Fatalf("parallel output diverged:\n%s\nvs\n%s", par, seq)
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	// A scenario name is not a verb: the legacy positional form is gone.
	for _, args := range [][]string{{"fig99"}, {"fig2"}, {"run", "fig99"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), "unknown") {
			t.Fatalf("%v: stderr: %s", args, errb.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%v: unknown name still produced output:\n%s", args, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	// -window, -full, -shards, -benchjson and -j were removed; no verb
	// prints usage instead of running everything.
	for _, args := range [][]string{{"-nope"}, {"-window", "50", "run", "fig8"},
		{"-j", "4", "run", "fig2"}, {"-benchjson", "x.json", "run", "anchors"}, {}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: produced output:\n%s", args, out.String())
		}
	}
	var out, errb bytes.Buffer
	run(nil, &out, &errb)
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no verb: stderr lacks usage: %s", errb.String())
	}
}

func TestBenchSubcommandWritesV3Report(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_v3.json")
	var out, errb bytes.Buffer
	args := []string{"bench", "-runs", "2", "-warmup", "1", "-json", path, "anchors", "table1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"scenario", "median", "anchors", "table1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("bench table missing %q:\n%s", want, out.String())
		}
	}
	report, err := experiments.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if report.Schema != "dipc-bench/v3" {
		t.Fatalf("schema = %q, want dipc-bench/v3", report.Schema)
	}
	if len(report.Results) != 2 {
		t.Fatalf("results = %+v, want 2 entries", report.Results)
	}
	for _, e := range report.Results {
		if e.Runs != 2 || e.Warmup != 1 || e.MinNs <= 0 || e.MedianNs <= 0 {
			t.Fatalf("entry = %+v, want runs=2 warmup=1 with min/median", e)
		}
	}
}

func TestBenchSubcommandCompare(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")

	// Seed a baseline with one scenario sure to "regress" (impossibly
	// fast) and one sure to "improve" (impossibly slow), plus a retired
	// scenario that is no longer in the registry: it must be skipped
	// (surfacing as "not run"), not fail the bench.
	// Reports written before the shard knob was removed carry a
	// "shards" field; such baselines must still load.
	seed := `{
	  "schema": "dipc-bench/v3",
	  "shards": 1,
	  "results": [
	    {"name": "anchors", "runs": 1, "wall_ns": 1, "median_ns": 1, "ns_per_run": 1},
	    {"name": "table1", "params": {"bulk": "4096"}, "runs": 1, "wall_ns": 3600000000000,
	     "median_ns": 3600000000000, "ns_per_run": 3600000000000},
	    {"name": "retired-scn", "runs": 1, "wall_ns": 42, "median_ns": 42, "ns_per_run": 42}
	  ]
	}`
	if err := os.WriteFile(baseline, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	// No positional scenarios: the set comes from the baseline.
	args := []string{"bench", "-runs", "1", "-warmup", "0", "-compare", baseline}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d (comparison must never gate), stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "!! regression") {
		t.Errorf("anchors vs 1ns baseline should be flagged as regression:\n%s", got)
	}
	if !strings.Contains(got, "1 scenario(s) regressed more than 25%") {
		t.Errorf("missing regression summary:\n%s", got)
	}
	if !strings.Contains(got, "baseline") || !strings.Contains(got, "delta") {
		t.Errorf("missing compare table header:\n%s", got)
	}
	if !strings.Contains(got, "retired-scn") || !strings.Contains(got, "not run") {
		t.Errorf("retired baseline scenario missing its 'not run' row:\n%s", got)
	}
	if !strings.Contains(errb.String(), `skipping baseline scenario "retired-scn"`) {
		t.Errorf("missing skip notice on stderr: %s", errb.String())
	}

	// The same baseline against a run with other params: table1 is not
	// comparable, and gating it fails like a scenario never compared.
	out.Reset()
	errb.Reset()
	args = []string{"bench", "-runs", "1", "-warmup", "0", "-compare", baseline,
		"-gate", "table1", "-p", "bulk=1024", "table1"}
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("gated params-differ scenario: exit %d, want 1; stdout: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "params differ") || !strings.Contains(errb.String(), `"table1" was not compared`) {
		t.Errorf("params-differ row or gate notice missing:\n%s\n%s", out.String(), errb.String())
	}
}

func TestBenchSubcommandRejectsBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"bench", "-runs", "1", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scenario: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown scenario") {
		t.Fatalf("stderr: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"bench", "-compare", "no-such-file.json", "anchors"}, &out, &errb); code != 2 {
		t.Fatalf("missing baseline: exit %d, want 2", code)
	}
	// A -p key that no selected scenario declares is a config error.
	errb.Reset()
	if code := run([]string{"bench", "-runs", "1", "-warmup", "0", "-p", "nosuch=1", "anchors", "table1"}, &out, &errb); code != 2 {
		t.Fatalf("undeclared param: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `"nosuch"`) {
		t.Fatalf("error should name the key: %s", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("bad input still produced output:\n%s", out.String())
	}
}

// TestCommittedBaselinesMatchDefaultParams keeps the CI perf smoke
// meaningful: bench -compare only diffs entries whose params match, so
// every committed baseline entry must record its scenario's defaults.
func TestCommittedBaselinesMatchDefaultParams(t *testing.T) {
	const path = "../../BENCH_engine.json"
	base, err := experiments.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range base.Results {
		s, ok := scenario.Default.Lookup(e.Name)
		if !ok {
			t.Errorf("%s: %s is not registered", path, e.Name)
			continue
		}
		cfg, err := scenario.NewConfig(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.ParamStrings(); !maps.Equal(got, e.Params) {
			t.Errorf("%s: %s params %v, defaults are %v", path, e.Name, e.Params, got)
		}
	}
}

func TestListScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"chain", "fig8", "ablations", "-p threads=4,16,64,256,512", "-p window=250ms", "all",
		"-p depth=1,2,4,8  (int list, >= 1)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("list output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSubcommandEmitsCanonicalJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.json")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "fig2", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	// Text output shows the round trips and their per-CPU breakdowns.
	for _, want := range []string{"== scenario fig2 ==", "round trip [ns]", "Sem. (=CPU) [ns]", "Page table switch"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in figure text:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Scenario string `json:"scenario"`
		Series   []struct {
			Label  string `json:"label"`
			Points []struct {
				Label string  `json:"label"`
				Y     float64 `json:"y"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("emitted document is not valid JSON: %v\n%s", err, data)
	}
	if doc.Schema != "dipc-scenario/v1" || doc.Scenario != "fig2" {
		t.Fatalf("document header = %+v", doc)
	}
	if len(doc.Series) == 0 || len(doc.Series[0].Points) == 0 {
		t.Fatalf("document has no series/points:\n%s", data)
	}
	if doc.Series[0].Points[0].Y <= 0 {
		t.Fatalf("empty measurement: %+v", doc.Series[0].Points[0])
	}
}

func TestRunSubcommandChainThroughPublicAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("chain sweep is slow")
	}
	var out, errb bytes.Buffer
	args := []string{"run", "chain", "-p", "depth=2,4", "-p", "threads=4", "-p", "window=20ms"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"== scenario chain ==", "depth=2,4", "dIPC", "Linux", "Ideal"} {
		if !strings.Contains(got, want) {
			t.Errorf("chain output missing %q:\n%s", want, got)
		}
	}
}

// An unknown key is named with the valid keys. fig6 and fig7 take no
// parameters, and no figure has a key that picks another axis.
func TestRunSubcommandRejectsUnknownParam(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"run", "table1", "-p", "bogus=1"}, []string{`"bogus"`, "bulk"}},
		{[]string{"run", "fig8", "-p", "full=true"}, []string{`"full"`, "threads, window"}},
		{[]string{"run", "fig8scaling", "-p", "full=true"}, []string{`"full"`, "cpus"}},
		{[]string{"run", "fig6", "-p", "maxpow=30"}, []string{`"maxpow"`, "take no parameters"}},
		{[]string{"run", "fig7", "-p", "step=1"}, []string{`"step"`, "take no parameters"}},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", c.args, code)
		}
		for _, want := range c.want {
			if !strings.Contains(errb.String(), want) {
				t.Errorf("%v: error should mention %s: %s", c.args, want, errb.String())
			}
		}
		if out.Len() != 0 {
			t.Fatalf("%v: bad parameter still produced output:\n%s", c.args, out.String())
		}
	}
}

func TestRunSubcommandRejectsStrayArguments(t *testing.T) {
	// A forgotten -p must not silently run the scenario with defaults.
	var out, errb bytes.Buffer
	if code := run([]string{"run", "table1", "bulk=1024"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "bulk=1024") || !strings.Contains(errb.String(), "-p") {
		t.Fatalf("stderr should point at the stray argument: %s", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("stray argument still produced output:\n%s", out.String())
	}
}

func TestBadParameterValueFailsBeforeAnyExperimentRuns(t *testing.T) {
	// Range errors are caught at config resolution: the whole batch is
	// rejected with exit 2 before the first scenario prints anything.
	var out, errb bytes.Buffer
	if code := run([]string{"run", "all", "-p", "window=0s"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("experiments ran before the bad parameter was rejected:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "window") {
		t.Fatalf("stderr: %s", errb.String())
	}
}

func TestRunSubcommandRejectsUnknownScenarioAndGroups(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"run", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown scenario") {
		t.Fatalf("stderr: %s", errb.String())
	}
	// A group runs, but -json writes one scenario's document.
	for _, name := range []string{"chaos", "all"} {
		errb.Reset()
		path := filepath.Join(t.TempDir(), "x.json")
		if code := run([]string{"run", name, "-json", path}, &out, &errb); code != 2 {
			t.Fatalf("run %s -json: exit %d, want 2", name, code)
		}
		if !strings.Contains(errb.String(), "-json") {
			t.Fatalf("stderr: %s", errb.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Fatalf("run %s -json wrote %s", name, path)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("refused runs still produced output:\n%s", out.String())
	}
}

func TestRunGroupRunsEveryMember(t *testing.T) {
	if testing.Short() {
		t.Skip("three chaos scenarios are slow")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"run", "chaos", "-p", "window=4ms"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range scenario.Default.GroupMembers("chaos") {
		if !strings.Contains(out.String(), "== scenario "+name+" ==") {
			t.Errorf("run chaos output missing %s:\n%s", name, out.String())
		}
	}
}

func TestWindowFlagForwardsToScenarioParams(t *testing.T) {
	if testing.Short() {
		t.Skip("chain run is slow")
	}
	// bench -p window=5ms reaches chain, which declares window, and is
	// recorded in its entry params; table1 declares no window.
	path := filepath.Join(t.TempDir(), "BENCH_fwd.json")
	var out, errb bytes.Buffer
	args := []string{"bench", "-runs", "1", "-warmup", "0", "-json", path,
		"-p", "window=5ms", "-p", "depth=1", "-p", "threads=2", "chain", "table1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	report, err := experiments.LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]map[string]string{}
	for _, e := range report.Results {
		params[e.Name] = e.Params
	}
	if len(params) != 2 {
		t.Fatalf("results = %+v, want chain and table1", report.Results)
	}
	if p := params["chain"]; p["window"] != "5ms" || p["depth"] != "1" {
		t.Fatalf("chain params = %v, want forwarded window=5ms depth=1", p)
	}
	if p := params["table1"]; p["window"] != "" || p["bulk"] != "4096" {
		t.Fatalf("table1 params = %v, want defaults only", p)
	}
}

func TestLegacyAblationsAliasResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("three OLTP ablation windows are slow")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"run", "ablations", "-p", "window=20ms"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"== scenario ablation-tls ==", "== scenario ablation-sharedpt ==", "== scenario ablation-steal =="} {
		if !strings.Contains(got, want) {
			t.Errorf("ablations output missing %q", want)
		}
	}
}

func TestRunProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	if code := run([]string{"-cpuprofile", cpu, "-memprofile", mem, "run", "anchors"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
