package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// The registry invariant tests: every scenario this package registers
// must present a well-formed, fully-parseable public surface. Most of
// these invariants are also enforced at registration time (Register
// panics), so the tests double as documentation of the contract and as
// a guard against the enforcement being weakened.

func TestRegistryScenarioInvariants(t *testing.T) {
	all := scenario.Default.All()
	if len(all) < 14 {
		t.Fatalf("registry has %d scenarios, expected the full evaluation (>= 14)", len(all))
	}
	nameRE := regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)
	seen := map[string]bool{}
	for _, s := range all {
		name := s.Name()
		if !nameRE.MatchString(name) {
			t.Errorf("scenario name %q is not lowercase [a-z0-9-]", name)
		}
		if seen[name] {
			t.Errorf("duplicate scenario name %q", name)
		}
		seen[name] = true
		if strings.TrimSpace(s.Describe()) == "" {
			t.Errorf("scenario %q has an empty description", name)
		}
		keys := map[string]bool{}
		for _, spec := range s.Params() {
			if spec.Key == "" || keys[spec.Key] {
				t.Errorf("scenario %q: duplicate or empty parameter key %q", name, spec.Key)
			}
			keys[spec.Key] = true
			if strings.TrimSpace(spec.Doc) == "" {
				t.Errorf("scenario %q parameter %q has no doc string", name, spec.Key)
			}
			// Every declared default parses and round-trips its
			// canonical encoding.
			v, err := spec.Kind.Parse(spec.Default)
			if err != nil {
				t.Errorf("scenario %q parameter %q default %q does not parse: %v",
					name, spec.Key, spec.Default, err)
				continue
			}
			if got := spec.Kind.Format(v); got != spec.Default {
				t.Errorf("scenario %q parameter %q default %q round-trips to %q",
					name, spec.Key, spec.Default, got)
			}
		}
	}
}

func TestRegistryLegacyNamesResolve(t *testing.T) {
	// The hand-wired cmd/dipcbench experiment names must stay runnable
	// as registry aliases: CI invocations and README commands use them.
	legacy := []string{
		"anchors", "fig1", "fig2", "table1", "fig5", "fig6", "fig7",
		"fig8", "fig8scaling", "sensitivity", "ablations", "all",
	}
	for _, name := range legacy {
		if got, ok := scenario.Default.Resolve(name); !ok || len(got) == 0 {
			t.Errorf("legacy name %q does not resolve", name)
		}
	}
	if members, _ := scenario.Default.Resolve("ablations"); len(members) != 3 {
		t.Errorf("ablations group has %d members, want 3", len(members))
	}
}

func TestRegistryUnknownParamRejectedWithValidKeys(t *testing.T) {
	for _, s := range scenario.Default.All() {
		_, err := scenario.NewConfig(s, map[string]string{"definitely-not-a-key": "1"})
		if err == nil {
			t.Errorf("scenario %q accepted an unknown parameter", s.Name())
			continue
		}
		// The error must name every valid key (or say there are none).
		specs := s.Params()
		if len(specs) == 0 {
			if !strings.Contains(err.Error(), "no parameters") {
				t.Errorf("scenario %q: error %q should say it takes no parameters", s.Name(), err)
			}
			continue
		}
		for _, spec := range specs {
			if !strings.Contains(err.Error(), spec.Key) {
				t.Errorf("scenario %q: error %q does not list valid key %q", s.Name(), err, spec.Key)
			}
		}
	}
}

// TestParamBoundsNameTheParameter iterates the registry: for every
// parameter with a lower bound, the value one step below it is rejected
// with an error naming the key. A Duration bound of 0s has no value
// below it (durations do not parse negative) and is skipped.
func TestParamBoundsNameTheParameter(t *testing.T) {
	checked := 0
	for _, s := range scenario.Default.All() {
		for _, spec := range s.Params() {
			if spec.Min == "" {
				continue
			}
			var below string
			switch spec.Kind {
			case scenario.Int, scenario.IntList:
				min, err := strconv.Atoi(spec.Min)
				if err != nil {
					t.Fatalf("%s %s: bound %q: %v", s.Name(), spec.Key, spec.Min, err)
				}
				below = strconv.Itoa(min - 1)
			case scenario.Duration:
				min, err := scenario.ParseDuration(spec.Min)
				if err != nil {
					t.Fatalf("%s %s: bound %q: %v", s.Name(), spec.Key, spec.Min, err)
				}
				if min == 0 {
					continue
				}
				below = scenario.FormatDuration(min - sim.Picosecond)
			default:
				t.Fatalf("%s %s: a %s parameter declares bound %q", s.Name(), spec.Key, spec.Kind, spec.Min)
			}
			checked++
			_, err := scenario.NewConfig(s, map[string]string{spec.Key: below})
			if err == nil || !strings.Contains(err.Error(), spec.Key) {
				t.Errorf("%s %s=%s (below its bound %s): want an error naming %q, got %v",
					s.Name(), spec.Key, below, spec.Min, spec.Key, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no scenario parameter declares a lower bound")
	}
}

func TestRegistryDefaultsProduceRunnableConfigs(t *testing.T) {
	// NewConfig with no overrides must succeed for every scenario, and
	// ParamStrings must echo the declared defaults exactly.
	for _, s := range scenario.Default.All() {
		cfg, err := scenario.NewConfig(s, nil)
		if err != nil {
			t.Errorf("scenario %q: default config: %v", s.Name(), err)
			continue
		}
		got := cfg.ParamStrings()
		for _, spec := range s.Params() {
			if got[spec.Key] != spec.Default {
				t.Errorf("scenario %q: ParamStrings[%q] = %q, want default %q",
					s.Name(), spec.Key, got[spec.Key], spec.Default)
			}
		}
	}
}

func TestRegistrationOrderMatchesLegacyStepTable(t *testing.T) {
	// "all" executes in registration order; the prefix must stay the
	// legacy cmd/dipcbench step order or the combined text output (and
	// any digest of it) changes.
	want := []string{
		"anchors", "table1", "fig2", "fig5", "fig6", "fig7", "fig1",
		"fig8", "fig8scaling", "sensitivity",
		"ablation-tls", "ablation-sharedpt", "ablation-steal",
	}
	all := scenario.Default.All()
	if len(all) < len(want) {
		t.Fatalf("registry too small: %d", len(all))
	}
	for i, name := range want {
		if all[i].Name() != name {
			t.Fatalf("registration order[%d] = %q, want %q", i, all[i].Name(), name)
		}
	}
}
