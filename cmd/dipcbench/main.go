// Command dipcbench runs the registered scenarios — the paper's tables
// and figures plus the extensions — through the first-class scenario
// API. Usage:
//
//	dipcbench [-parallel n] [-cpuprofile path] [-memprofile path] <verb> ...
//	dipcbench list
//	dipcbench run <scenario|group|all> [-p key=value ...] [-json path] [-engine-stats]
//	dipcbench bench [-runs n] [-warmup n] [-compare baseline.json]
//	          [-regress pct] [-gate names] [-p key=value ...]
//	          [-json path] [scenario|group|all ...]
//
// `list` prints every registered scenario with its typed parameters and
// defaults, and the group names. `run` executes one scenario, a group or
// `all` in registration order and prints each result; with -json (one
// scenario only) it also writes the canonical dipc-scenario/v1 JSON
// document, and with -engine-stats it prints after each result what the
// scenario's engines did (events dispatched, callbacks among them,
// coroutine switches, procs spawned; host-side counts that no result
// includes). `bench` wall-clock-times the selected scenarios (default:
// the scenarios of the -compare baseline, else all) over -runs measured
// iterations after -warmup unmeasured ones, prints min/median per
// scenario, optionally diffs against a committed BENCH_*.json baseline
// (flagging scenarios that regressed more than -regress percent), and
// with -json writes the dipc-bench/v3 report that becomes the next
// baseline.
//
// `run` and `bench` resolve -p the same way: each key goes to every
// selected scenario that declares it, a key no selected scenario
// declares is an error, and every configuration is resolved before the
// first scenario runs.
//
// Independent sweep points run concurrently on a worker pool
// (-parallel; default: one worker per CPU); the output is identical
// whatever the worker count. -cpuprofile and -memprofile write pprof
// profiles of the verb's run for hot-path work.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const usage = `usage:
  dipcbench [-parallel n] [-cpuprofile path] [-memprofile path] <verb> ...
  dipcbench list
  dipcbench run <scenario|group|all> [-p key=value ...] [-json path] [-engine-stats]
  dipcbench bench [-runs n] [-warmup n] [-compare baseline.json] [-regress pct]
            [-gate names] [-p key=value ...] [-json path] [scenario|group|all ...]
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// paramFlags collects repeated -p key=value pairs.
type paramFlags map[string]string

func (p paramFlags) String() string { return "" }

func (p paramFlags) Set(s string) error {
	key, value, ok := strings.Cut(s, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	p[key] = value
	return nil
}

// run executes the command against the given argument list and streams;
// main is a thin wrapper so tests can drive the whole command in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dipcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	parallel := fs.Int("parallel", 0, "sweep worker count (0 = one per CPU, 1 = sequential)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	experiments.SetParallelism(*parallel)

	reg := scenario.Default
	args := fs.Args()
	var verb func(*scenario.Registry, []string, io.Writer, io.Writer) int
	switch {
	case len(args) == 0:
		fs.Usage()
		return 2
	case args[0] == "list":
		return cmdList(reg, stdout)
	case args[0] == "run":
		verb = cmdRun
	case args[0] == "bench":
		verb = cmdBench
	default:
		fmt.Fprintf(stderr, "unknown verb %q\n", args[0])
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	code := verb(reg, args[1:], stdout, stderr)
	if code == 0 && *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // materialize the live-heap picture
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}
	return code
}

// parseVerb parses a verb's flags, which may come before, between or
// after its positional arguments, and returns the positional ones. ok is
// false after a parse error or -h; code is then the exit code.
func parseVerb(fs *flag.FlagSet, argv []string) (names []string, code int, ok bool) {
	for {
		if err := fs.Parse(argv); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil, 0, false
			}
			return nil, 2, false
		}
		if fs.NArg() == 0 {
			return names, 0, true
		}
		names = append(names, fs.Arg(0))
		argv = fs.Args()[1:]
	}
}

// selectScenarios resolves names (scenarios, groups, "all") into the
// scenarios they run, deduplicated, in registration order.
func selectScenarios(reg *scenario.Registry, names []string) ([]scenario.Scenario, error) {
	want := map[string]bool{}
	for _, a := range names {
		list, ok := reg.Resolve(strings.ToLower(a))
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (known: %s)", a, strings.Join(reg.Known(), ", "))
		}
		for _, s := range list {
			want[s.Name()] = true
		}
	}
	var out []scenario.Scenario
	for _, s := range reg.All() {
		if want[s.Name()] {
			out = append(out, s)
		}
	}
	return out, nil
}

// resolveConfigs resolves every selected scenario's configuration up
// front, so a bad parameter fails before anything runs. Each -p key goes
// to every selected scenario that declares it; a key that none of them
// declares is an error naming it.
func resolveConfigs(scns []scenario.Scenario, pairs paramFlags) ([]*scenario.Config, error) {
	declared := map[string]bool{}
	for _, s := range scns {
		for _, spec := range s.Params() {
			declared[spec.Key] = true
		}
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !declared[k] {
			valid := make([]string, 0, len(declared))
			for d := range declared {
				valid = append(valid, d)
			}
			sort.Strings(valid)
			hint := "the selected scenarios take no parameters"
			if len(valid) > 0 {
				hint = "valid keys: " + strings.Join(valid, ", ")
			}
			return nil, fmt.Errorf("unknown parameter %q: no selected scenario declares it (%s)", k, hint)
		}
	}
	cfgs := make([]*scenario.Config, len(scns))
	for i, s := range scns {
		ov := map[string]string{}
		for _, spec := range s.Params() {
			if v, ok := pairs[spec.Key]; ok {
				ov[spec.Key] = v
			}
		}
		cfg, err := scenario.NewConfig(s, ov)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// cmdRun runs one scenario, a group or all, printing each result.
func cmdRun(reg *scenario.Registry, argv []string, stdout, stderr io.Writer) int {
	sub := flag.NewFlagSet("dipcbench run", flag.ContinueOnError)
	sub.SetOutput(stderr)
	pairs := paramFlags{}
	sub.Var(pairs, "p", "scenario parameter override (`key=value`, repeatable)")
	jsonPath := sub.String("json", "", "write the canonical dipc-scenario/v1 JSON document to this path (one scenario only)")
	engineStats := sub.Bool("engine-stats", false, "after each scenario, print what its engines dispatched (host-side counts, in no result)")
	names, code, ok := parseVerb(sub, argv)
	if !ok {
		return code
	}
	if len(names) != 1 {
		if len(names) == 0 {
			fmt.Fprint(stderr, usage)
		} else {
			fmt.Fprintf(stderr, "unexpected argument %q: run takes one scenario, group or all; parameters use -p key=value\n", names[1])
		}
		return 2
	}
	scns, err := selectScenarios(reg, names)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	if *jsonPath != "" && len(scns) != 1 {
		fmt.Fprintf(stderr, "-json writes one scenario's document; %q selects %d scenarios\n", names[0], len(scns))
		return 2
	}
	cfgs, err := resolveConfigs(scns, pairs)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	var res *scenario.Result
	for i, s := range scns {
		before := sim.TotalStats()
		if res, err = s.Run(cfgs[i]); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", s.Name(), err)
			return 1
		}
		fmt.Fprintln(stdout, res.RenderText())
		if *engineStats {
			after := sim.TotalStats()
			fmt.Fprintf(stdout, "engine stats (%s): dispatched %d, callbacks %d, switches %d, procs spawned %d\n\n", s.Name(),
				after.Dispatched-before.Dispatched, after.Callbacks-before.Callbacks,
				after.Switches-before.Switches, after.Spawned-before.Spawned)
		}
	}
	if *jsonPath == "" {
		return 0
	}
	data, err := res.MarshalCanonical()
	if err == nil {
		err = os.WriteFile(*jsonPath, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "json: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote scenario result: %s\n", *jsonPath)
	return 0
}

// cmdBench times the selected scenarios under a multi-run wall clock and
// optionally diffs them against a committed baseline report. It is the
// perf-regression harness: CI's perf-smoke job runs
// `bench -compare BENCH_engine.json -gate crosscall,crosscalldeep,...`.
// Plain regression flagging never changes the exit code — wall-clock
// noise on shared runners must not gate merges on whole figures — but
// a scenario named in -gate fails the run (exit 1) when it regresses
// more than -regress percentage points *beyond the suite's median
// delta*: a slower host shifts every scenario together and cancels out
// of the relative comparison, while a genuine hot-path regression
// moves only its own scenarios.
func cmdBench(reg *scenario.Registry, argv []string, stdout, stderr io.Writer) int {
	sub := flag.NewFlagSet("dipcbench bench", flag.ContinueOnError)
	sub.SetOutput(stderr)
	runs := sub.Int("runs", 3, "measured runs per scenario (min/median reported)")
	warmup := sub.Int("warmup", 1, "unmeasured warmup runs per scenario")
	compare := sub.String("compare", "", "baseline BENCH_*.json to diff against")
	regress := sub.Float64("regress", 25, "flag scenarios slower than baseline by more than this percent")
	gate := sub.String("gate", "", "comma-separated scenarios whose regression fails the run (exit 1); judged relative to the suite's median delta so host-speed drift cancels")
	pairs := paramFlags{}
	sub.Var(pairs, "p", "scenario parameter override (`key=value`, repeatable), as for run")
	jsonPath := sub.String("json", "", "write the dipc-bench/v3 report to this path")
	names, code, ok := parseVerb(sub, argv)
	if !ok {
		return code
	}

	var baseline *experiments.BenchReport
	if *compare != "" {
		var err error
		baseline, err = experiments.LoadBenchReport(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
	}

	// Scenario selection: positional names (groups allowed), else the
	// baseline's scenario set, else everything. A baseline entry whose
	// scenario is no longer registered is skipped — it surfaces as a
	// "not run" row in the comparison instead of failing the whole
	// bench, so retiring a scenario cannot break the CI perf smoke.
	switch {
	case len(names) > 0:
	case baseline == nil:
		names = []string{"all"}
	default:
		for _, e := range baseline.Results {
			if _, ok := reg.Resolve(e.Name); !ok {
				fmt.Fprintf(stderr, "skipping baseline scenario %q: not registered\n", e.Name)
				continue
			}
			names = append(names, e.Name)
		}
	}
	scns, err := selectScenarios(reg, names)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	cfgs, err := resolveConfigs(scns, pairs)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}

	report := experiments.NewBenchReport()
	gated := map[string]bool{}
	if *gate != "" {
		if baseline == nil {
			fmt.Fprintf(stderr, "-gate requires -compare: a gate without a baseline cannot gate anything\n")
			return 2
		}
		for _, name := range strings.Split(*gate, ",") {
			if name = strings.TrimSpace(strings.ToLower(name)); name != "" {
				gated[name] = true
			}
		}
	}

	for i, s := range scns {
		var runErr error
		report.TimeRuns(s.Name(), *runs, *warmup, cfgs[i].ParamStrings(), func() {
			if _, err := s.Run(cfgs[i]); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", s.Name(), runErr)
			return 1
		}
	}

	gateFailures := 0
	if baseline == nil {
		fmt.Fprintf(stdout, "%-14s %5s %12s %12s\n", "scenario", "runs", "min", "median")
		for _, e := range report.Results {
			fmt.Fprintf(stdout, "%-14s %5d %12s %12s\n",
				e.Name, e.Runs, experiments.FmtNs(float64(e.MinNs)), experiments.FmtNs(float64(e.MedianNs)))
		}
	} else {
		regressions := 0
		deltas := experiments.CompareReports(baseline, report)
		median := experiments.MedianPct(deltas)
		// A gated scenario that was not actually compared (renamed,
		// dropped from the baseline, typo'd, run with other params)
		// must fail loudly: a gate that silently matches nothing has
		// stopped gating.
		compared := map[string]bool{}
		for _, d := range deltas {
			if d.Comparable() {
				compared[d.Name] = true
			}
		}
		gatedNames := make([]string, 0, len(gated))
		for name := range gated {
			gatedNames = append(gatedNames, name)
		}
		sort.Strings(gatedNames)
		for _, name := range gatedNames {
			if !compared[name] {
				fmt.Fprintf(stderr, "gated scenario %q was not compared (missing from the run or the baseline, or its params differ)\n", name)
				gateFailures++
			}
		}
		fmt.Fprintf(stdout, "%-14s %12s %12s %9s\n", "scenario", "baseline", "median", "delta")
		for _, d := range deltas {
			switch {
			case d.CurNs == 0:
				fmt.Fprintf(stdout, "%-14s %12s %12s %9s\n",
					d.Name, experiments.FmtNs(d.BaseNs), "-", "not run")
			case d.BaseNs == 0:
				fmt.Fprintf(stdout, "%-14s %12s %12s %9s\n",
					d.Name, "-", experiments.FmtNs(d.CurNs), "new")
			case d.ParamsDiffer:
				fmt.Fprintf(stdout, "%-14s %12s %12s %s\n",
					d.Name, experiments.FmtNs(d.BaseNs), experiments.FmtNs(d.CurNs), "params differ")
			default:
				mark := ""
				if d.Regressed(*regress) {
					mark = "  !! regression"
					regressions++
				}
				if gated[d.Name] && d.RegressedRelative(median, *regress) {
					mark += "  !! gated"
					gateFailures++
				}
				fmt.Fprintf(stdout, "%-14s %12s %12s %+8.1f%%%s\n",
					d.Name, experiments.FmtNs(d.BaseNs), experiments.FmtNs(d.CurNs), d.Pct, mark)
			}
		}
		if regressions > 0 {
			fmt.Fprintf(stdout, "%d scenario(s) regressed more than %.0f%% vs %s\n",
				regressions, *regress, *compare)
		} else {
			fmt.Fprintf(stdout, "no scenario regressed more than %.0f%% vs %s\n", *regress, *compare)
		}
		if len(gated) > 0 {
			if gateFailures > 0 {
				fmt.Fprintf(stdout, "GATE FAILED: %d gated scenario(s) regressed more than %.0f%% beyond the suite median (%+.1f%%) or were not compared\n",
					gateFailures, *regress, median)
			} else {
				fmt.Fprintf(stdout, "gate ok: no gated scenario regressed more than %.0f%% beyond the suite median (%+.1f%%)\n",
					*regress, median)
			}
		}
	}

	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote benchmark report: %s\n", *jsonPath)
	}
	if gateFailures > 0 {
		return 1
	}
	return 0
}

// cmdList prints every registered scenario, its parameter schema and
// the group aliases.
func cmdList(reg *scenario.Registry, stdout io.Writer) int {
	fmt.Fprintln(stdout, "Scenarios:")
	for _, name := range reg.Names() {
		s, _ := reg.Lookup(name)
		fmt.Fprintf(stdout, "  %-18s %s\n", name, s.Describe())
		for _, spec := range s.Params() {
			kind := spec.Kind.String()
			if spec.Min != "" {
				kind += ", >= " + spec.Min
			}
			fmt.Fprintf(stdout, "%20s-p %s=%s  (%s) %s\n", "", spec.Key, spec.Default, kind, spec.Doc)
		}
	}
	fmt.Fprintln(stdout, "\nGroups:")
	for _, g := range reg.Groups() {
		fmt.Fprintf(stdout, "  %-18s %s (= %s)\n",
			g, reg.GroupDescribe(g), strings.Join(reg.GroupMembers(g), ", "))
	}
	fmt.Fprintf(stdout, "  %-18s every scenario in registration order\n", "all")
	return 0
}
