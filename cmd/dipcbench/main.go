// Command dipcbench runs the registered scenarios — the paper's tables
// and figures plus the extensions — through the first-class scenario
// API. Usage:
//
//	dipcbench list
//	dipcbench run <scenario> [-p key=value ...] [-json path]
//	dipcbench [-window ms] [-full] [-shards n] bench [-runs n] [-warmup n]
//	          [-compare baseline.json] [-regress pct]
//	          [-gate names] [-json path] [scenario ...]
//	dipcbench [-window ms] [-full] [-shards n] [-parallel n]
//	          [-benchjson path] [-cpuprofile path] [-memprofile path]
//	          [experiment ...]
//
// `list` prints every registered scenario with its typed parameters and
// defaults. `run` executes one scenario with explicit parameter
// overrides and can write the canonical dipc-scenario/v1 JSON document.
// `bench` wall-clock-times the selected scenarios (default: the
// scenarios of the -compare baseline, else all) over -runs measured
// iterations after -warmup unmeasured ones, prints min/median per
// scenario, optionally diffs against a committed BENCH_*.json baseline
// (flagging scenarios that regressed more than -regress percent), and
// with -json writes the dipc-bench/v3 report that becomes the next
// baseline. The last form is the legacy interface: each experiment name
// is a scenario or group from the registry (fig1, fig2, table1, ...,
// ablations, all; default: all), and the -window/-full flags forward to
// every selected scenario that declares those parameters.
//
// Independent sweep points run concurrently on a worker pool (-parallel,
// alias -j; default: one worker per CPU); the output is identical
// whatever the worker count.
//
// -shards forwards to every selected scenario that declares a `shards`
// execution parameter — the scenarios that run one clustered simulation
// (rack, chaos-rack, failover-*) — and sets how many engine shards
// partition it (1 = sequential reference, 0 = one per host core).
// Results are byte-identical at every shard count; only wall-clock time
// changes, so bench reports record the shard count and bench -compare
// refuses to mix different ones.
//
// -benchjson times each selected scenario under a wall clock and writes
// a BENCH_*.json-shaped baseline report (schema dipc-bench/v2, with the
// run context and per-scenario parameters recorded) to the given path,
// so the simulator's own speed can be tracked across PRs. -cpuprofile
// and -memprofile write pprof profiles of the run for hot-path work.
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
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

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

// job is one scenario selected for execution with its resolved
// parameter overrides.
type job struct {
	scn       scenario.Scenario
	overrides map[string]string
}

// run executes the command against the given argument list and streams;
// main is a thin wrapper so tests can drive the whole command in-process.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dipcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	windowMs := fs.Float64("window", 250, "OLTP measurement window in milliseconds (forwarded to scenarios with a `window` parameter)")
	full := fs.Bool("full", false, "run the full-resolution sweeps (forwarded to scenarios with a `full` parameter)")
	parallel := fs.Int("parallel", 0, "sweep worker count (0 = one per CPU, 1 = sequential)")
	fs.IntVar(parallel, "j", 0, "alias for -parallel")
	shards := fs.Int("shards", 1, "shard count forwarded to scenarios with a `shards` parameter (1 = sequential reference, 0 = one per host core)")
	benchjson := fs.String("benchjson", "", "write a wall-clock benchmark report (BENCH_*.json shape) to this path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	experiments.SetParallelism(*parallel)
	windowSet, shardsSet := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "window":
			windowSet = true
		case "shards":
			shardsSet = true
		}
	})

	// globalOverrides forwards the legacy -window/-full flags (and
	// -shards, when given explicitly) to any scenario declaring those
	// parameter keys; everything else comes from the scenario's own
	// declared defaults.
	globalOverrides := func(s scenario.Scenario) map[string]string {
		ov := map[string]string{}
		for _, spec := range s.Params() {
			switch spec.Key {
			case "window":
				if windowSet {
					ov["window"] = scenario.FormatDuration(sim.Millis(*windowMs))
				}
			case "full":
				if *full {
					ov["full"] = "true"
				}
			case "shards":
				if shardsSet {
					ov["shards"] = strconv.Itoa(*shards)
				}
			}
		}
		return ov
	}

	reg := scenario.Default
	args := fs.Args()

	var jobs []job
	jsonPath := ""
	switch {
	case len(args) > 0 && args[0] == "list":
		return cmdList(reg, stdout)

	case len(args) > 0 && args[0] == "bench":
		return cmdBench(reg, args[1:], globalOverrides, *full, *windowMs, *shards, stdout, stderr)

	case len(args) > 0 && args[0] == "run":
		rest := args[1:]
		if len(rest) == 0 {
			fmt.Fprintf(stderr, "usage: dipcbench run <scenario> [-p key=value ...] [-json path]\n")
			return 2
		}
		name := strings.ToLower(rest[0])
		sub := flag.NewFlagSet("dipcbench run", flag.ContinueOnError)
		sub.SetOutput(stderr)
		pairs := paramFlags{}
		sub.Var(pairs, "p", "scenario parameter override (`key=value`, repeatable)")
		jsonFlag := sub.String("json", "", "write the canonical dipc-scenario/v1 JSON document to this path")
		if err := sub.Parse(rest[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if sub.NArg() > 0 {
			fmt.Fprintf(stderr, "unexpected argument %q; parameters use -p key=value\n", sub.Arg(0))
			return 2
		}
		s, ok := reg.Lookup(name)
		if !ok {
			switch {
			case name == "all":
				fmt.Fprintf(stderr, "run takes a single scenario; use `dipcbench all` (or no arguments) to run everything\n")
			case len(reg.GroupMembers(name)) > 0:
				fmt.Fprintf(stderr, "run takes a single scenario; %q is a group (members: %s)\n",
					name, strings.Join(reg.GroupMembers(name), ", "))
			default:
				fmt.Fprintf(stderr, "unknown scenario %q (known: %s)\n", name, strings.Join(reg.Names(), ", "))
			}
			return 2
		}
		ov := globalOverrides(s)
		for k, v := range pairs { //dipcvet:unordered-ok map-to-map copy, order-insensitive
			ov[k] = v
		}
		jobs = []job{{scn: s, overrides: ov}}
		jsonPath = *jsonFlag

	default:
		// Legacy interface: positional experiment names resolved through
		// the registry, executed in registration order.
		if len(args) == 0 {
			args = []string{"all"}
		}
		want := map[string]bool{}
		for _, a := range args {
			list, ok := reg.Resolve(strings.ToLower(a))
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (known: %s)\n",
					a, strings.Join(reg.Known(), ", "))
				return 2
			}
			for _, s := range list {
				want[s.Name()] = true
			}
		}
		for _, s := range reg.All() {
			if want[s.Name()] {
				jobs = append(jobs, job{scn: s, overrides: globalOverrides(s)})
			}
		}
	}

	// Resolve every configuration up front so a bad parameter fails
	// before any experiment runs.
	cfgs := make([]*scenario.Config, len(jobs))
	for i, j := range jobs {
		cfg, err := scenario.NewConfig(j.scn, j.overrides)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
		}
		cfgs[i] = cfg
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

	var report *experiments.BenchReport
	if *benchjson != "" {
		report = experiments.NewBenchReport()
		report.Full = *full
		report.Window = scenario.FormatDuration(sim.Millis(*windowMs))
		report.Shards = resolveShards(*shards)
	}
	for i, j := range jobs {
		var res *scenario.Result
		var runErr error
		do := func() { res, runErr = j.scn.Run(cfgs[i]) }
		if report != nil {
			report.TimeWithParams(j.scn.Name(), 1, cfgs[i].ParamStrings(), do)
		} else {
			do()
		}
		if runErr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", j.scn.Name(), runErr)
			return 1
		}
		fmt.Fprintln(stdout, res.RenderText())
		if jsonPath != "" {
			data, err := res.MarshalCanonical()
			if err != nil {
				fmt.Fprintf(stderr, "json: %v\n", err)
				return 1
			}
			if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
				fmt.Fprintf(stderr, "json: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote scenario result: %s\n", jsonPath)
		}
	}
	if report != nil {
		if err := report.WriteFile(*benchjson); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote benchmark report: %s\n", *benchjson)
	}

	if *memprofile != "" {
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
	return 0
}

// cmdBench times the selected scenarios under a multi-run wall clock and
// optionally diffs them against a committed baseline report. It is the
// perf-regression harness: CI's perf-smoke job runs
// `bench -compare BENCH_engine.json -gate crosscall,crosscalldeep`.
// Plain regression flagging never changes the exit code — wall-clock
// noise on shared runners must not gate merges on whole figures — but
// a scenario named in -gate fails the run (exit 1) when it regresses
// more than -regress percentage points *beyond the suite's median
// delta*: a slower host shifts every scenario together and cancels out
// of the relative comparison, while a genuine hot-path regression
// moves only its own scenarios.
func cmdBench(reg *scenario.Registry, argv []string,
	globalOverrides func(scenario.Scenario) map[string]string,
	full bool, windowMs float64, shards int, stdout, stderr io.Writer) int {

	sub := flag.NewFlagSet("dipcbench bench", flag.ContinueOnError)
	sub.SetOutput(stderr)
	runs := sub.Int("runs", 3, "measured runs per scenario (min/median reported)")
	warmup := sub.Int("warmup", 1, "unmeasured warmup runs per scenario")
	compare := sub.String("compare", "", "baseline BENCH_*.json to diff against")
	regress := sub.Float64("regress", 25, "flag scenarios slower than baseline by more than this percent")
	gate := sub.String("gate", "", "comma-separated scenarios whose regression fails the run (exit 1); judged relative to the suite's median delta so host-speed drift cancels")
	jsonPath := sub.String("json", "", "write the dipc-bench/v3 report to this path")
	if err := sub.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var baseline *experiments.BenchReport
	if *compare != "" {
		var err error
		baseline, err = experiments.LoadBenchReport(*compare)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
		// Wall-clock numbers at different shard counts measure different
		// executions; refusing up front beats a silently bogus diff.
		if cur := resolveShards(shards); baseline.EffectiveShards() != cur {
			fmt.Fprintf(stderr, "compare: baseline %s was measured at shards=%d, this run uses shards=%d; rerun with matching -shards\n",
				*compare, baseline.EffectiveShards(), cur)
			return 2
		}
	}

	// Scenario selection: positional names (groups allowed), else the
	// baseline's scenario set, else everything. A baseline entry whose
	// scenario is no longer registered is skipped — it surfaces as a
	// "not run" row in the comparison instead of failing the whole
	// bench, so retiring a scenario cannot break the CI perf smoke.
	names := sub.Args()
	fromBaseline := false
	if len(names) == 0 {
		if baseline != nil {
			fromBaseline = true
			for _, e := range baseline.Results {
				names = append(names, e.Name)
			}
		} else {
			names = []string{"all"}
		}
	}
	want := map[string]bool{}
	for _, a := range names {
		list, ok := reg.Resolve(strings.ToLower(a))
		if !ok {
			if fromBaseline {
				fmt.Fprintf(stderr, "skipping baseline scenario %q: not registered\n", a)
				continue
			}
			fmt.Fprintf(stderr, "unknown scenario %q (known: %s)\n", a, strings.Join(reg.Known(), ", "))
			return 2
		}
		for _, s := range list {
			want[s.Name()] = true
		}
	}
	var jobs []job
	for _, s := range reg.All() {
		if want[s.Name()] {
			jobs = append(jobs, job{scn: s, overrides: globalOverrides(s)})
		}
	}

	cfgs := make([]*scenario.Config, len(jobs))
	for i, j := range jobs {
		cfg, err := scenario.NewConfig(j.scn, j.overrides)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
		}
		cfgs[i] = cfg
	}

	report := experiments.NewBenchReport()
	report.Full = full
	report.Window = scenario.FormatDuration(sim.Millis(windowMs))
	report.Shards = resolveShards(shards)
	for i, j := range jobs {
		var runErr error
		report.TimeRuns(j.scn.Name(), *runs, *warmup, cfgs[i].ParamStrings(), func() {
			if _, err := j.scn.Run(cfgs[i]); err != nil && runErr == nil {
				runErr = err
			}
		})
		if runErr != nil {
			fmt.Fprintf(stderr, "%s: %v\n", j.scn.Name(), runErr)
			return 1
		}
	}

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
		// dropped from the baseline, typo'd) must fail loudly: a gate
		// that silently matches nothing has stopped gating.
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
				fmt.Fprintf(stderr, "gated scenario %q was not compared (missing from the run or the baseline)\n", name)
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
				fmt.Fprintf(stdout, "GATE FAILED: %d gated scenario(s) regressed more than %.0f%% beyond the suite median (%+.1f%%)\n",
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

// resolveShards maps the -shards flag to the shard count a run records:
// 0 means one shard per host core, anything below 1 otherwise clamps to
// the sequential reference.
func resolveShards(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// cmdList prints every registered scenario, its parameter schema and
// the group aliases.
func cmdList(reg *scenario.Registry, stdout io.Writer) int {
	fmt.Fprintln(stdout, "Scenarios:")
	for _, name := range reg.Names() {
		s, _ := reg.Lookup(name)
		fmt.Fprintf(stdout, "  %-18s %s\n", name, s.Describe())
		for _, spec := range s.Params() {
			fmt.Fprintf(stdout, "%20s-p %s=%s  (%s) %s\n", "", spec.Key, spec.Default, spec.Kind, spec.Doc)
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
