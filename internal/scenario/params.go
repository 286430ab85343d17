package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Kind is the type of one scenario parameter. Every kind has a canonical
// string encoding: Parse accepts it (and reasonable variants), Format
// emits it, and Format(Parse(s)) is the identity on canonical strings —
// the registry invariant tests enforce that every declared default
// round-trips.
type Kind int

// The parameter kinds.
const (
	Int      Kind = iota // decimal integer, e.g. "4096"
	Float                // decimal float, e.g. "0.5"
	Duration             // simulated time with unit suffix, e.g. "250ms", "20us"
	IntList              // comma-separated integers, e.g. "1,64,4096"
)

// String names the kind for listings and error messages.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case Duration:
		return "duration"
	case IntList:
		return "int list"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parse decodes s into the kind's Go value (int, float64, sim.Time or
// []int).
func (k Kind) Parse(s string) (any, error) {
	switch k {
	case Int:
		return strconv.Atoi(s)
	case Float:
		return strconv.ParseFloat(s, 64)
	case Duration:
		return ParseDuration(s)
	case IntList:
		if s == "" {
			return nil, fmt.Errorf("empty int list")
		}
		parts := strings.Split(s, ",")
		out := make([]int, len(parts))
		for i, p := range parts {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("int list element %q: %v", p, err)
			}
			out[i] = v
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown parameter kind %v", k)
	}
}

// Format encodes a parsed value back into its canonical string.
func (k Kind) Format(v any) string {
	switch k {
	case Int:
		return strconv.Itoa(v.(int))
	case Float:
		return strconv.FormatFloat(v.(float64), 'g', -1, 64)
	case Duration:
		return FormatDuration(v.(sim.Time))
	case IntList:
		parts := make([]string, len(v.([]int)))
		for i, n := range v.([]int) {
			parts[i] = strconv.Itoa(n)
		}
		return strings.Join(parts, ",")
	default:
		return fmt.Sprintf("%v", v)
	}
}

// durationUnits maps suffixes onto simulated-time units, longest suffix
// first so "ms" is not mistaken for "s".
var durationUnits = []struct {
	suffix string
	unit   sim.Time
}{
	{"ps", sim.Picosecond},
	{"ns", sim.Nanosecond},
	{"us", sim.Microsecond},
	{"ms", sim.Millisecond},
	{"s", sim.Second},
}

// ParseDuration decodes a simulated duration like "250ms", "1.5us" or
// "0s". A unit suffix is required (simulated time has no implicit unit).
func ParseDuration(s string) (sim.Time, error) {
	for _, u := range durationUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("duration %q: %v", s, err)
		}
		if math.IsNaN(f) || f < 0 {
			return 0, fmt.Errorf("duration %q: must be a non-negative number", s)
		}
		// Reject values that overflow the picosecond representation
		// (sim.Time is int64): +Inf and anything past ~106 days.
		if f > float64(math.MaxInt64)/float64(u.unit) {
			return 0, fmt.Errorf("duration %q: overflows simulated time", s)
		}
		return sim.Time(f * float64(u.unit)), nil
	}
	return 0, fmt.Errorf("duration %q: need a unit suffix (ps, ns, us, ms, s)", s)
}

// FormatDuration encodes t with the largest unit that represents it
// exactly, so every value round-trips through ParseDuration.
func FormatDuration(t sim.Time) string {
	if t == 0 {
		return "0s"
	}
	for i := len(durationUnits) - 1; i >= 0; i-- {
		u := durationUnits[i]
		if t%u.unit == 0 {
			return fmt.Sprintf("%d%s", int64(t/u.unit), u.suffix)
		}
	}
	return fmt.Sprintf("%dps", int64(t))
}

// ParamSpec declares one typed scenario parameter: its key, kind,
// canonical default, inclusive lower bound and a one-line doc string
// for `dipcbench list`.
//
// Min is the inclusive lower bound in the kind's canonical encoding,
// applied to each element of an IntList; "" means none. Param sets it
// to the positive minimum ("1", "1ps") for Int, IntList and Duration,
// and AtLeast declares another; Float takes none. NewConfig enforces it
// before any Checker runs.
type ParamSpec struct {
	Key     string
	Kind    Kind
	Default string
	Min     string
	Doc     string
}

// Param is a convenience constructor for a ParamSpec.
func Param(key string, kind Kind, def, doc string) ParamSpec {
	return ParamSpec{Key: key, Kind: kind, Default: def, Min: positiveMin(kind), Doc: doc}
}

// AtLeast returns p with its lower bound set to min.
func (p ParamSpec) AtLeast(min string) ParamSpec {
	p.Min = min
	return p
}

// positiveMin is a kind's default lower bound: its smallest positive
// value, or none for Float.
func positiveMin(k Kind) string {
	switch k {
	case Int, IntList:
		return "1"
	case Duration:
		return "1ps"
	}
	return ""
}

// checkMin reports a parsed value below p.Min as an error naming the
// key, and a bound that does not parse or that the kind does not take.
func (p ParamSpec) checkMin(v any) error {
	if p.Min == "" {
		return nil
	}
	kind := p.Kind
	if kind == IntList {
		kind = Int // the bound applies to each element
	}
	if kind != Int && kind != Duration {
		return fmt.Errorf("%s: a %s parameter takes no lower bound, got %q", p.Key, p.Kind, p.Min)
	}
	min, err := kind.Parse(p.Min)
	if err != nil {
		return fmt.Errorf("%s: bound %q does not parse: %v", p.Key, p.Min, err)
	}
	if d, ok := v.(sim.Time); ok {
		switch {
		case d >= min.(sim.Time):
			return nil
		case min == sim.Picosecond:
			return fmt.Errorf("%s must be a positive duration, got %s", p.Key, FormatDuration(d))
		}
		return fmt.Errorf("%s must be >= %s, got %s", p.Key, p.Min, FormatDuration(d))
	}
	vs, ok := v.([]int)
	if !ok {
		vs = []int{v.(int)}
	}
	for _, n := range vs {
		if n < min.(int) {
			return fmt.Errorf("%s must be >= %s, got %d", p.Key, p.Min, n)
		}
	}
	return nil
}

// Config carries a scenario's resolved parameter values: the declared
// defaults overlaid with any explicit overrides. The typed getters panic
// on undeclared keys — scenarios only read parameters they declared, so
// a miss is a programming error the registry tests catch.
type Config struct {
	specs  []ParamSpec
	values map[string]any
}

// NewConfig resolves the scenario's parameters, applying overrides
// (key -> string value) on top of the declared defaults. Unknown keys,
// malformed values and values below a declared bound are rejected; the
// unknown-key error names every valid key.
func NewConfig(s Scenario, overrides map[string]string) (*Config, error) {
	specs := s.Params()
	cfg := &Config{specs: specs, values: make(map[string]any, len(specs))}
	byKey := make(map[string]ParamSpec, len(specs))
	for _, spec := range specs {
		v, err := spec.Kind.Parse(spec.Default)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: default for %q does not parse: %v", s.Name(), spec.Key, err)
		}
		cfg.values[spec.Key] = v
		byKey[spec.Key] = spec
	}
	keys := make([]string, 0, len(overrides))
	for k := range overrides {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		spec, ok := byKey[k]
		if !ok {
			valid := "scenario takes no parameters"
			if len(specs) > 0 {
				names := make([]string, len(specs))
				for i, sp := range specs {
					names[i] = sp.Key
				}
				valid = "valid keys: " + strings.Join(names, ", ")
			}
			return nil, fmt.Errorf("unknown parameter %q for scenario %q (%s)", k, s.Name(), valid)
		}
		v, err := spec.Kind.Parse(overrides[k])
		if err != nil {
			return nil, fmt.Errorf("parameter %s (%s): %v", k, spec.Kind, err)
		}
		cfg.values[k] = v
	}
	for _, spec := range specs {
		if err := spec.checkMin(cfg.values[spec.Key]); err != nil {
			return nil, fmt.Errorf("scenario %q: %v", s.Name(), err)
		}
	}
	if c, ok := s.(Checker); ok {
		if err := c.Check(cfg); err != nil {
			return nil, fmt.Errorf("scenario %q: %v", s.Name(), err)
		}
	}
	return cfg, nil
}

func (c *Config) value(key string) any {
	v, ok := c.values[key]
	if !ok {
		panic(fmt.Sprintf("scenario: read of undeclared parameter %q", key))
	}
	return v
}

// Int returns an Int parameter.
func (c *Config) Int(key string) int { return c.value(key).(int) }

// Float returns a Float parameter.
func (c *Config) Float(key string) float64 { return c.value(key).(float64) }

// Duration returns a Duration parameter as simulated time.
func (c *Config) Duration(key string) sim.Time { return c.value(key).(sim.Time) }

// Ints returns an IntList parameter.
func (c *Config) Ints(key string) []int { return c.value(key).([]int) }

// ParamStrings returns every resolved model parameter in canonical
// string form, the map recorded in Result.Params and BenchReport
// entries.
func (c *Config) ParamStrings() map[string]string {
	out := make(map[string]string, len(c.specs))
	for _, spec := range c.specs {
		out[spec.Key] = spec.Kind.Format(c.values[spec.Key])
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
