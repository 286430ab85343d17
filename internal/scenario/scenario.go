// Package scenario is the first-class experiment API of the repository.
//
// A Scenario is one self-describing, runnable workload: it has a unique
// name, a one-line description, a typed parameter schema with canonical
// defaults, and a Run method producing the uniform Result model (labeled
// series of measurements with optional per-CPU breakdowns). Scenarios
// self-register into a Registry — normally the package-level Default —
// and everything downstream (the cmd/dipcbench CLI, the wall-clock
// benchmark report, the golden determinism digests) iterates the
// registry instead of hand-maintained experiment tables, so adding a
// workload is one self-registering file.
package scenario

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Scenario is one runnable experiment.
type Scenario interface {
	// Name is the unique registry key (lowercase, [a-z0-9-]).
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Params declares the typed parameter schema. Every default must
	// parse and round-trip its canonical encoding.
	Params() []ParamSpec
	// Run executes the scenario under the resolved configuration.
	Run(cfg *Config) (*Result, error)
}

// Checker is implemented by scenarios with constraints beyond what the
// kinds and lower bounds express: upper bounds and cross-parameter rules
// (e.g. "restartat after killat"). NewConfig calls Check after parsing
// and bounding, so invalid values fail at config resolution — before any
// experiment runs — not midway through a batch.
type Checker interface {
	Check(cfg *Config) error
}

// funcScenario is the Scenario returned by New / NewChecked.
type funcScenario struct {
	name     string
	describe string
	params   []ParamSpec
	check    func(cfg *Config) error
	run      func(cfg *Config) (*Result, error)
}

func (s *funcScenario) Name() string                     { return s.name }
func (s *funcScenario) Describe() string                 { return s.describe }
func (s *funcScenario) Params() []ParamSpec              { return s.params }
func (s *funcScenario) Run(cfg *Config) (*Result, error) { return s.run(cfg) }

func (s *funcScenario) Check(cfg *Config) error {
	if s.check == nil {
		return nil
	}
	return s.check(cfg)
}

// New builds a Scenario from its parts; most scenarios are declared this
// way rather than as bespoke types.
func New(name, describe string, params []ParamSpec, run func(cfg *Config) (*Result, error)) Scenario {
	return &funcScenario{name: name, describe: describe, params: params, run: run}
}

// NewChecked is New with a parameter validation hook, called by
// NewConfig once the overrides are parsed.
func NewChecked(name, describe string, params []ParamSpec,
	check func(cfg *Config) error, run func(cfg *Config) (*Result, error)) Scenario {
	return &funcScenario{name: name, describe: describe, params: params, check: check, run: run}
}

// Registry holds an ordered set of scenarios plus named groups (aliases
// that expand to several scenarios, e.g. "ablations"). Registration
// order is preserved: it is the execution order of "all", which pins the
// legacy cmd/dipcbench output layout.
type Registry struct {
	mu       sync.Mutex
	order    []Scenario
	byName   map[string]Scenario
	groups   map[string][]string
	groupDoc map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName:   make(map[string]Scenario),
		groups:   make(map[string][]string),
		groupDoc: make(map[string]string),
	}
}

// Default is the process-wide registry that self-registering scenario
// files (and the dipcbench CLI) use.
var Default = NewRegistry()

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// validateName panics unless name is a fresh, well-formed registry key.
func (r *Registry) validateName(kind, name string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("scenario: invalid %s name %q (want lowercase [a-z0-9-])", kind, name))
	}
	if name == "all" {
		panic(`scenario: the name "all" is reserved`)
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	if _, dup := r.groups[name]; dup {
		panic(fmt.Sprintf("scenario: %s name %q collides with a group", kind, name))
	}
}

// Register adds s to the registry. It panics on malformed or duplicate
// names, empty descriptions, parameter defaults that do not round-trip,
// and lower bounds that do not parse, do not fit the kind or exclude the
// default — registration is the enforcement point for the schema
// invariants, so a bad scenario fails at init time, not mid-run.
func (r *Registry) Register(s Scenario) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := s.Name()
	r.validateName("scenario", name)
	if strings.TrimSpace(s.Describe()) == "" {
		panic(fmt.Sprintf("scenario: %q has an empty description", name))
	}
	seen := make(map[string]bool)
	for _, spec := range s.Params() {
		if spec.Key == "" || seen[spec.Key] {
			panic(fmt.Sprintf("scenario: %q declares a duplicate or empty parameter key %q", name, spec.Key))
		}
		seen[spec.Key] = true
		v, err := spec.Kind.Parse(spec.Default)
		if err != nil {
			panic(fmt.Sprintf("scenario: %q parameter %q default %q does not parse: %v",
				name, spec.Key, spec.Default, err))
		}
		if got := spec.Kind.Format(v); got != spec.Default {
			panic(fmt.Sprintf("scenario: %q parameter %q default %q is not canonical (round-trips to %q)",
				name, spec.Key, spec.Default, got))
		}
		if err := spec.checkMin(v); err != nil {
			panic(fmt.Sprintf("scenario: %q parameter %q default %q: %v", name, spec.Key, spec.Default, err))
		}
	}
	r.byName[name] = s
	r.order = append(r.order, s)
}

// RegisterGroup adds a named alias expanding to the given member
// scenarios, which must already be registered.
func (r *Registry) RegisterGroup(name, describe string, members ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.validateName("group", name)
	if len(members) == 0 {
		panic(fmt.Sprintf("scenario: group %q has no members", name))
	}
	for _, m := range members {
		if _, ok := r.byName[m]; !ok {
			panic(fmt.Sprintf("scenario: group %q member %q is not registered", name, m))
		}
	}
	r.groups[name] = append([]string(nil), members...)
	r.groupDoc[name] = describe
}

// Lookup returns the scenario registered under name.
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byName[name]
	return s, ok
}

// Resolve expands name — a scenario, a group, or "all" — into the
// scenarios it runs, in registration order.
func (r *Registry) Resolve(name string) ([]Scenario, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "all" {
		return append([]Scenario(nil), r.order...), true
	}
	if s, ok := r.byName[name]; ok {
		return []Scenario{s}, true
	}
	if members, ok := r.groups[name]; ok {
		out := make([]Scenario, len(members))
		for i, m := range members {
			out[i] = r.byName[m]
		}
		return out, true
	}
	return nil, false
}

// All returns every scenario in registration order.
func (r *Registry) All() []Scenario {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Scenario(nil), r.order...)
}

// Names returns the sorted scenario names.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Groups returns the sorted group names.
func (r *Registry) Groups() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.groups))
	for n := range r.groups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GroupMembers returns a group's member scenario names.
func (r *Registry) GroupMembers(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.groups[name]...)
}

// GroupDescribe returns a group's description.
func (r *Registry) GroupDescribe(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.groupDoc[name]
}

// Known returns every runnable name — scenarios, groups and "all" — for
// the CLI's unknown-experiment error, sorted.
func (r *Registry) Known() []string {
	names := r.Names()
	names = append(names, r.Groups()...)
	names = append(names, "all")
	sort.Strings(names)
	return names
}

// Register adds s to the Default registry.
func Register(s Scenario) { Default.Register(s) }

// RegisterGroup adds a group alias to the Default registry.
func RegisterGroup(name, describe string, members ...string) {
	Default.RegisterGroup(name, describe, members...)
}
