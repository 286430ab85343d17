package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// stub builds a minimal scenario for registry tests.
func stub(name string, params ...ParamSpec) Scenario {
	return New(name, "a test scenario", params, func(cfg *Config) (*Result, error) {
		return &Result{Scenario: name, Params: cfg.ParamStrings()}, nil
	})
}

func TestKindRoundTrips(t *testing.T) {
	cases := []struct {
		kind      Kind
		canonical string
	}{
		{Int, "4096"},
		{Int, "-3"},
		{Float, "0.5"},
		{Float, "14"},
		{Bool, "true"},
		{Bool, "false"},
		{Duration, "250ms"},
		{Duration, "20us"},
		{Duration, "1ns"},
		{Duration, "0s"},
		{Duration, "1500us"}, // largest exact unit below 2ms
		{IntList, "1,64,4096"},
		{IntList, "7"},
	}
	for _, c := range cases {
		v, err := c.kind.Parse(c.canonical)
		if err != nil {
			t.Errorf("%v.Parse(%q): %v", c.kind, c.canonical, err)
			continue
		}
		if got := c.kind.Format(v); got != c.canonical {
			t.Errorf("%v: %q round-trips to %q", c.kind, c.canonical, got)
		}
	}
}

func TestDurationParsing(t *testing.T) {
	for in, want := range map[string]sim.Time{
		"250ms": sim.Millis(250),
		"1.5us": sim.Micros(1.5),
		"34ns":  sim.Nanos(34),
		"2s":    2 * sim.Second,
		"10ps":  10 * sim.Picosecond,
	} {
		got, err := ParseDuration(in)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseDuration(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"", "250", "ms", "-4ms", "1h", "x1ns", "nans", "infs", "1e30s"} {
		if _, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) should fail", bad)
		}
	}
	// FormatDuration picks the largest exact unit.
	for in, want := range map[sim.Time]string{
		sim.Millis(250):       "250ms",
		sim.Micros(1.5):       "1500ns",
		sim.Second:            "1s",
		0:                     "0s",
		3 * sim.Picosecond:    "3ps",
		1000 * sim.Nanosecond: "1us",
	} {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", int64(in), got, want)
		}
	}
}

func TestConfigDefaultsAndOverrides(t *testing.T) {
	s := stub("cfg-test",
		Param("threads", Int, "16", "workers"),
		Param("window", Duration, "250ms", "window"),
		Param("sizes", IntList, "1,64", "axis"),
		Param("full", Bool, "false", "full sweep"),
	)
	cfg, err := NewConfig(s, map[string]string{"threads": "4", "window": "20ms"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Int("threads") != 4 || cfg.Duration("window") != sim.Millis(20) {
		t.Fatalf("overrides not applied: %+v", cfg.values)
	}
	if got := cfg.Ints("sizes"); len(got) != 2 || got[1] != 64 {
		t.Fatalf("default int list = %v", got)
	}
	if cfg.Bool("full") {
		t.Fatal("default bool should be false")
	}
	if !cfg.Explicit("threads") || cfg.Explicit("sizes") {
		t.Fatal("Explicit tracking wrong")
	}
	ps := cfg.ParamStrings()
	if ps["threads"] != "4" || ps["window"] != "20ms" || ps["sizes"] != "1,64" || ps["full"] != "false" {
		t.Fatalf("ParamStrings = %v", ps)
	}
}

// TestCompatParamOmittedAtDefault pins the back-compat contract: a
// Compat parameter left at its declared default stays out of the
// canonical parameter map (so pre-existing digests survive the knob's
// introduction), while any other value is recorded like a normal
// parameter.
func TestCompatParamOmittedAtDefault(t *testing.T) {
	s := stub("cfg-compat",
		Param("threads", Int, "8", "workers"),
		CompatParam("jitter", Float, "0", "late-added knob"),
	)
	cfg, err := NewConfig(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps := cfg.ParamStrings(); ps["threads"] != "8" {
		t.Fatalf("ParamStrings = %v", ps)
	} else if _, ok := ps["jitter"]; ok {
		t.Fatalf("compat param at its default leaked into ParamStrings: %v", ps)
	}
	// Explicitly restating the default is still the default behaviour.
	cfg, err = NewConfig(s, map[string]string{"jitter": "0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.ParamStrings()["jitter"]; ok {
		t.Fatalf("compat param explicitly at its default leaked into ParamStrings")
	}
	cfg, err = NewConfig(s, map[string]string{"jitter": "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.ParamStrings()["jitter"]; got != "0.5" {
		t.Fatalf("overridden compat param = %q, want 0.5", got)
	}
}

func TestConfigRejectsUnknownKeyNamingValidOnes(t *testing.T) {
	s := stub("cfg-unknown", Param("depth", IntList, "1,2", "tiers"), Param("threads", Int, "8", "workers"))
	_, err := NewConfig(s, map[string]string{"bogus": "1"})
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, want := range []string{"bogus", "depth", "threads"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// A scenario without parameters says so.
	_, err = NewConfig(stub("cfg-none"), map[string]string{"x": "1"})
	if err == nil || !strings.Contains(err.Error(), "no parameters") {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigRunsCheckerAtResolutionTime(t *testing.T) {
	s := NewChecked("cfg-checked", "a test scenario",
		[]ParamSpec{Param("threads", Int, "8", "workers")},
		func(cfg *Config) error {
			if cfg.Int("threads") > 64 {
				return fmt.Errorf("threads must be <= 64, got %d", cfg.Int("threads"))
			}
			return nil
		},
		func(cfg *Config) (*Result, error) { return &Result{Scenario: "cfg-checked"}, nil })
	if _, err := NewConfig(s, map[string]string{"threads": "65"}); err == nil ||
		!strings.Contains(err.Error(), "threads must be <= 64") {
		t.Fatalf("checker not run at config time: %v", err)
	}
	if _, err := NewConfig(s, nil); err != nil {
		t.Fatalf("valid defaults rejected: %v", err)
	}
}

// TestConfigEnforcesLowerBounds: NewConfig rejects a value below its
// ParamSpec's bound — every element of an IntList — with an error
// naming the key, and accepts the bound itself.
func TestConfigEnforcesLowerBounds(t *testing.T) {
	s := stub("cfg-bounds",
		Param("threads", Int, "8", "workers"),
		Param("retries", Int, "2", "retries").AtLeast("0"),
		Param("depth", IntList, "1,2", "tiers"),
		Param("window", Duration, "20ms", "window"),
		Param("restartat", Duration, "5ms", "restart (0: never)").AtLeast("0s"),
		Param("warmup", Duration, "4ms", "warmup").AtLeast("2ms"),
	)
	for _, c := range []struct{ key, val, want string }{
		{"threads", "0", "threads must be >= 1, got 0"},
		{"retries", "-1", "retries must be >= 0, got -1"},
		{"depth", "1,0,4", "depth must be >= 1, got 0"},
		{"window", "0s", "window must be a positive duration, got 0s"},
		{"warmup", "1ms", "warmup must be >= 2ms, got 1ms"},
	} {
		if _, err := NewConfig(s, map[string]string{c.key: c.val}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s=%s: want an error containing %q, got %v", c.key, c.val, c.want, err)
		}
	}
	for _, ok := range [][2]string{
		{"threads", "1"}, {"retries", "0"}, {"depth", "1"}, {"window", "1ps"}, {"restartat", "0s"}, {"warmup", "2ms"},
	} {
		if _, err := NewConfig(s, map[string]string{ok[0]: ok[1]}); err != nil {
			t.Errorf("%s=%s at its bound rejected: %v", ok[0], ok[1], err)
		}
	}
}

func TestConfigRejectsMalformedValue(t *testing.T) {
	s := stub("cfg-bad", Param("threads", Int, "8", "workers"))
	if _, err := NewConfig(s, map[string]string{"threads": "lots"}); err == nil {
		t.Fatal("malformed value accepted")
	}
}

func TestRegistryRegisterResolve(t *testing.T) {
	r := NewRegistry()
	a, b, c := stub("alpha"), stub("beta"), stub("gamma")
	r.Register(a)
	r.Register(b)
	r.Register(c)
	r.RegisterGroup("greek", "a group", "beta", "gamma")

	if got := r.Names(); len(got) != 3 || got[0] != "alpha" {
		t.Fatalf("Names = %v", got)
	}
	if all := r.All(); len(all) != 3 || all[0] != a || all[2] != c {
		t.Fatalf("All() order wrong")
	}
	if got, ok := r.Resolve("greek"); !ok || len(got) != 2 || got[0] != b {
		t.Fatalf("group resolve = %v, %v", got, ok)
	}
	if got, ok := r.Resolve("all"); !ok || len(got) != 3 {
		t.Fatalf("all resolve = %v, %v", got, ok)
	}
	if _, ok := r.Resolve("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	known := strings.Join(r.Known(), ",")
	for _, want := range []string{"alpha", "greek", "all"} {
		if !strings.Contains(known, want) {
			t.Fatalf("Known() = %s missing %s", known, want)
		}
	}
}

func TestRegistryRejectsBadRegistrations(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Register(stub("dup"))
	expectPanic("duplicate", func() { r.Register(stub("dup")) })
	expectPanic("bad name", func() { r.Register(stub("Bad Name")) })
	expectPanic("reserved all", func() { r.Register(stub("all")) })
	expectPanic("empty describe", func() {
		r.Register(New("empty-desc", "  ", nil, nil))
	})
	expectPanic("non-canonical default", func() {
		r.Register(stub("bad-default", Param("w", Duration, "0.25s", "window")))
	})
	expectPanic("bound does not parse", func() {
		r.Register(stub("bad-bound", Param("k", Int, "4", "x").AtLeast("one")))
	})
	expectPanic("bound on a bool", func() {
		r.Register(stub("bool-bound", Param("b", Bool, "false", "x").AtLeast("0")))
	})
	expectPanic("bound on a float", func() {
		r.Register(stub("float-bound", Param("f", Float, "0.5", "x").AtLeast("0")))
	})
	expectPanic("default below the positive minimum", func() {
		r.Register(stub("low-default", Param("k", Int, "0", "x")))
	})
	expectPanic("default below a declared bound", func() {
		r.Register(stub("low-duration", Param("w", Duration, "1ms", "x").AtLeast("2ms")))
	})
	expectPanic("list default below its bound", func() {
		r.Register(stub("low-list", Param("l", IntList, "3,1", "x").AtLeast("2")))
	})
	expectPanic("dup param key", func() {
		r.Register(stub("dup-key", Param("k", Int, "1", "x"), Param("k", Int, "2", "y")))
	})
	expectPanic("group member missing", func() { r.RegisterGroup("g", "d", "ghost") })
}

func TestCanonicalJSONShape(t *testing.T) {
	res := &Result{
		Scenario: "demo",
		Params:   map[string]string{"b": "2", "a": "1"},
		Series: []Series{{
			Label: "tput", Unit: "ops/min",
			Points: []Point{{X: 1, Y: 100, PerCPU: []CPUSlice{{CPU: 0, Blocks: map[string]float64{"User code": 5}}}}},
		}},
		Notes: []string{"headline"},
	}
	data, err := res.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, data)
	}
	if doc["schema"] != Schema || doc["scenario"] != "demo" {
		t.Fatalf("doc header = %v", doc)
	}
	// Canonical: repeated marshals are byte-identical, params sorted.
	again, _ := res.MarshalCanonical()
	if string(data) != string(again) {
		t.Fatal("canonical encoding not stable")
	}
	if a, b := strings.Index(string(data), `"a"`), strings.Index(string(data), `"b"`); a < 0 || b < 0 || a > b {
		t.Fatalf("params not key-sorted:\n%s", data)
	}
	if data[len(data)-1] != '\n' {
		t.Fatal("canonical document must end with a newline")
	}
}

func TestRenderTextGeneric(t *testing.T) {
	shared := &Result{
		Scenario: "chain",
		Params:   map[string]string{"depth": "1,2"},
		Series: []Series{
			{Label: "Linux", Unit: "ops/min", Points: []Point{{X: 1, Y: 4082400}, {X: 2, Y: 5}}},
			{Label: "dIPC", Unit: "ops/min", Points: []Point{{X: 1, Y: 1234567}, {X: 2, Y: 0.0000125}}},
		},
		Notes: []string{"dIPC wins"},
	}
	out := shared.RenderText()
	for _, want := range []string{"== scenario chain ==", "params: depth=1,2", "Linux [ops/min]", "dIPC wins",
		"4082400", "1234567", "0.0000125"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "e+") || strings.Contains(out, "e-") {
		t.Errorf("render uses exponent notation:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n") || strings.HasSuffix(out, "\n\n") {
		t.Fatalf("render must end with exactly one newline:\n%q", out)
	}
	// Mismatched axes fall back to the per-series listing.
	list := &Result{Scenario: "mix", Series: []Series{
		{Label: "a", Points: []Point{{Label: "p", Y: 1}}},
		{Label: "b", Points: []Point{{X: 5, Y: 2}, {X: 6, Y: 3}}},
	}}
	if out := list.RenderText(); !strings.Contains(out, "a:\n") {
		t.Fatalf("list render wrong:\n%s", out)
	}
}

// A point's per-CPU breakdown prints as a table of blocks by CPU, in
// the paper's block order, with each CPU's total.
func TestRenderTextPerCPUBlocks(t *testing.T) {
	res := &Result{Scenario: "bars", Series: []Series{{Label: "round trip", Unit: "ns", Points: []Point{
		{Label: "Sem. (=CPU)", Y: 30, PerCPU: []CPUSlice{
			{CPU: 0, Blocks: map[string]float64{"Schedule / ctxt. switch": 20, "User code": 10}},
			{CPU: 1, Blocks: map[string]float64{"Idle / IO wait": 30}},
		}},
		{Label: "Function call", Y: 2},
	}}}}
	out := res.RenderText()
	want := `Sem. (=CPU) [ns]         CPU 0  CPU 1
-----------------------  -----  -----
User code                10     -    
Schedule / ctxt. switch  20     -    
Idle / IO wait           -      30   
total                    30     30   
`
	if !strings.Contains(out, want) {
		t.Fatalf("per-CPU table missing; want\n%s\ngot\n%s", want, out)
	}
	if strings.Contains(out, "Function call [ns]") {
		t.Fatalf("a point without a breakdown printed one:\n%s", out)
	}
}

// Series sharing one axis but not one unit print as one table per unit,
// in order of first appearance.
func TestRenderTextSplitsTablesByUnit(t *testing.T) {
	pts := func(a, b float64) []Point { return []Point{{X: 4, Y: a}, {X: 16, Y: b}} }
	res := &Result{Scenario: "fig8", Series: []Series{
		{Label: "Linux", Unit: "ops/min", Points: pts(100, 200)},
		{Label: "Linux avg latency", Unit: "ns", Points: pts(7, 8)},
		{Label: "dIPC", Unit: "ops/min", Points: pts(300, 400)},
	}}
	out := res.RenderText()
	want := `x   Linux [ops/min]  dIPC [ops/min]
--  ---------------  --------------
4   100              300           
16  200              400           

x   Linux avg latency [ns]
--  ----------------------
4   7                     
16  8                     
`
	if !strings.Contains(out, want) {
		t.Fatalf("want one table per unit\n%s\ngot\n%s", want, out)
	}
}
