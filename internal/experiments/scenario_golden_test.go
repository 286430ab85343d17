package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// update rewrites the golden files from the current run instead of
// comparing against them: go test -run TestScenarioGoldenFiles -update.
// A re-pin is then reviewed as the git diff of testdata/golden.
var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current run")

// scenarioGoldens pins every scenario's canonical dipc-scenario/v1 JSON
// document at a fixed parameter point to testdata/golden/<name>.json.
// Together with golden_test.go (which pins an OLTP slice to the
// pre-pooling engine) this extends the determinism contract to the
// whole registry: any change to a simulated quantity, to series
// construction, or to the canonical encoding fails the byte comparison.
//
// OLTP-backed entries use shrunken windows so the full table stays
// runnable in CI; `slow` entries are skipped under -short.
var scenarioGoldens = map[string]struct {
	overrides map[string]string
	slow      bool
}{
	"anchors":           {nil, false},
	"table1":            {nil, false},
	"fig2":              {nil, false},
	"fig5":              {nil, false},
	"fig6":              {nil, false},
	"fig7":              {nil, false},
	"ablation-tls":      {nil, false},
	"fig1":              {map[string]string{"window": "30ms"}, true},
	"fig8":              {map[string]string{"threads": "4,16", "window": "20ms"}, true},
	"fig8scaling":       {map[string]string{"cpus": "1,2", "threads": "4", "window": "20ms"}, true},
	"sensitivity":       {map[string]string{"threads": "4", "window": "20ms"}, true},
	"ablation-sharedpt": {map[string]string{"threads": "4", "window": "20ms"}, true},
	"ablation-steal":    {map[string]string{"threads": "4", "window": "20ms"}, true},
	"chain":             {map[string]string{"depth": "1,2", "threads": "4", "window": "20ms"}, true},
	"crosscall":         {nil, false},
	"crosscalldeep":     {nil, false},
	"rack":              {map[string]string{"window": "10ms", "warmup": "2ms"}, false},
	"chaos-kill":        {map[string]string{"window": "10ms", "warmup": "3ms", "killat": "5ms", "restartat": "8ms"}, false},
	"chaos-rack":        {map[string]string{"window": "8ms", "warmup": "2ms", "flapperiod": "3ms", "flapdown": "1ms"}, false},
	"chaos-retrystorm":  {map[string]string{"window": "5ms", "warmup": "2ms"}, false},
	"overload-knee":     {map[string]string{"window": "10ms", "warmup": "3ms"}, false},
	"overload-shed":     {map[string]string{"window": "10ms", "warmup": "3ms"}, false},
	"overload-storm":    {nil, false},
	"failover-kill":     {map[string]string{"window": "8ms", "warmup": "2ms", "killat": "3ms", "restartat": "5ms"}, false},
	"failover-flap":     {map[string]string{"window": "8ms", "warmup": "2ms"}, false},
	"failover-hedge":    {map[string]string{"window": "8ms", "warmup": "2ms"}, false},
}

// goldenPath is where scenario name's pinned document lives.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestScenarioGoldenCoverage enforces, by iterating the registry, that
// every registered scenario is pinned, every pin names a registered
// scenario, and every golden file belongs to a pin.
func TestScenarioGoldenCoverage(t *testing.T) {
	for _, s := range scenario.Default.All() {
		if _, pinned := scenarioGoldens[s.Name()]; !pinned {
			t.Errorf("scenario %q has no golden entry", s.Name())
		}
	}
	for name := range scenarioGoldens {
		if _, ok := scenario.Default.Lookup(name); !ok {
			t.Errorf("golden entry for unregistered scenario %q", name)
		}
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, pinned := scenarioGoldens[strings.TrimSuffix(filepath.Base(f), ".json")]; !pinned {
			t.Errorf("golden file %s belongs to no golden entry", f)
		}
	}
}

// pinnedNames returns the pinned scenarios in sorted order, without the
// slow entries under -short.
func pinnedNames() []string {
	names := make([]string, 0, len(scenarioGoldens))
	for name, g := range scenarioGoldens {
		if g.slow && testing.Short() {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runGolden runs the pinned scenario name at its golden parameter point
// and returns the result with its canonical JSON.
func runGolden(name string) (*scenario.Result, []byte, error) {
	s, ok := scenario.Default.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("not registered")
	}
	cfg, err := scenario.NewConfig(s, scenarioGoldens[name].overrides)
	if err != nil {
		return nil, nil, fmt.Errorf("config: %w", err)
	}
	res, err := s.Run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("run: %w", err)
	}
	data, err := res.MarshalCanonical()
	if err != nil {
		return nil, nil, fmt.Errorf("marshal: %w", err)
	}
	return res, data, nil
}

// checkGolden compares got with name's golden file byte for byte and
// describes the first difference.
func checkGolden(name string, got []byte) error {
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	return fmt.Errorf("canonical JSON diverged from %s: %s (rerun with -update to re-pin)",
		goldenPath(name), firstDifference(want, got))
}

// firstDifference names the first series and point, note or parameter
// where got departs from want, or else the first differing line.
func firstDifference(want, got []byte) string {
	var w, g scenario.Result
	if json.Unmarshal(want, &w) == nil && json.Unmarshal(got, &g) == nil {
		for i := 0; i < max(len(w.Series), len(g.Series)); i++ {
			if i >= len(w.Series) {
				return fmt.Sprintf("added series %q", g.Series[i].Label)
			}
			if i >= len(g.Series) {
				return fmt.Sprintf("missing series %q", w.Series[i].Label)
			}
			ws, gs := w.Series[i], g.Series[i]
			if ws.Label != gs.Label || ws.Unit != gs.Unit {
				return fmt.Sprintf("series %d is %q [%s], want %q [%s]", i, gs.Label, gs.Unit, ws.Label, ws.Unit)
			}
			for j := 0; j < max(len(ws.Points), len(gs.Points)); j++ {
				switch {
				case j >= len(ws.Points):
					return fmt.Sprintf("series %q: added point %d %+v", ws.Label, j, gs.Points[j])
				case j >= len(gs.Points):
					return fmt.Sprintf("series %q: missing point %d %+v", ws.Label, j, ws.Points[j])
				case !reflect.DeepEqual(ws.Points[j], gs.Points[j]):
					return fmt.Sprintf("series %q point %d (x=%v %q): got y=%v, want y=%v (per-CPU equal: %v)",
						ws.Label, j, ws.Points[j].X, ws.Points[j].Label, gs.Points[j].Y, ws.Points[j].Y,
						reflect.DeepEqual(ws.Points[j].PerCPU, gs.Points[j].PerCPU))
				}
			}
		}
		for i := 0; i < max(len(w.Notes), len(g.Notes)); i++ {
			switch {
			case i >= len(w.Notes):
				return fmt.Sprintf("added note %q", g.Notes[i])
			case i >= len(g.Notes):
				return fmt.Sprintf("missing note %q", w.Notes[i])
			case w.Notes[i] != g.Notes[i]:
				return fmt.Sprintf("note %d is %q, want %q", i, g.Notes[i], w.Notes[i])
			}
		}
		if !reflect.DeepEqual(w.Params, g.Params) {
			return fmt.Sprintf("params are %v, want %v", g.Params, w.Params)
		}
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// TestScenarioGoldenDigests runs each pinned scenario at its golden
// parameter point and compares its canonical JSON with the golden file.
// With -update it rewrites the file instead.
func TestScenarioGoldenDigests(t *testing.T) {
	for _, name := range pinnedNames() {
		res, got, err := runGolden(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if *update {
			if err := os.WriteFile(goldenPath(name), got, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := checkGolden(name, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.Scenario != name {
			t.Errorf("%s: result names scenario %q", name, res.Scenario)
		}
		if len(res.Series) == 0 {
			t.Errorf("%s: result has no series", name)
		}
	}
}

// TestScenarioGoldenParallelWidths reruns every pinned scenario with
// its sweep on 1, 2 and 4 workers and requires each document to equal
// the golden file: the output must not depend on the worker count.
func TestScenarioGoldenParallelWidths(t *testing.T) {
	defer SetParallelism(0)
	for _, name := range pinnedNames() {
		for _, width := range []int{1, 2, 4} {
			SetParallelism(width)
			_, got, err := runGolden(name)
			if err != nil {
				t.Errorf("%s -parallel %d: %v", name, width, err)
				continue
			}
			if err := checkGolden(name, got); err != nil {
				t.Errorf("%s -parallel %d: %v", name, width, err)
			}
		}
	}
}
