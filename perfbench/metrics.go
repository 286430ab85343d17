package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract: a --trace 0 run prints exactly the
// end-to-end metrics, a --trace 1 run exactly the per-layer ones, and
// BENCHMARK.json lists the same names (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name, Unit string
}

// transports are the two configurations every workload compares, in the
// order they run; each names the suffix of its per-transport metrics.
var transports = []struct {
	Suffix string
	DIPC   bool
}{{"linux", false}, {"dipc", true}}

// endToEnd lists the metrics a user of the simulator sees: its host cost
// and the modeled results it exists to produce. Modeled times are in
// simulated time, and their units say so.
var endToEnd = append([]metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"allocs_per_req", "count"},
	{"alloc_bytes_per_req", "B"},
	{"peak_rss_mb", "MB"},
}, perTransport(
	metricDef{"model_kops", "kops/sim_s"},
	metricDef{"model_lat_us", "sim_us"},
	metricDef{"model_tail_us", "sim_us"},
	metricDef{"model_ok_share", "ratio"},
)...)

// profileLayers are the layers a CPU profile sample is charged to, each
// reported as <layer>.cpu_share; their shares sum to 1. "other" holds the
// repository's remaining packages, "runtime" the samples with no
// repository frame at all (the Go scheduler, GC workers).
var profileLayers = []string{"sim", "kernel", "ipc", "core", "oltp", "netpipe", "load", "faults", "stats", "other", "runtime"}

// modelLayers are the modeled per-layer quantities, reported once per
// transport with a _linux or _dipc suffix.
var modelLayers = []metricDef{
	{"kernel.sched_share", "ratio"},
	{"kernel.syscall_share", "ratio"},
	{"kernel.pt_share", "ratio"},
	{"core.proxy_share", "ratio"},
	{"user.share", "ratio"},
	{"idle.share", "ratio"},
	{"oltp.calls_per_req", "count"},
	{"oltp.retry_amp", "ratio"},
	{"oltp.timeouts", "count"},
	{"oltp.rejected", "count"},
	{"oltp.breaker_trips", "count"},
	{"load.offered", "count"},
	{"load.balked", "count"},
	{"oltp.hedges", "count"},
	{"oltp.hedge_win_rate", "ratio"},
	{"oltp.cancelled", "count"},
	{"oltp.suspicions", "count"},
	{"oltp.false_suspects", "count"},
	{"kernel.busy_share_m0", "ratio"},
	{"kernel.busy_share_m1", "ratio"},
	{"kernel.busy_share_m2", "ratio"},
}

// perLayer lists the metrics of the traced run: host self-time shares
// from a CPU profile, direct layer probes, and modeled layer quantities.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range profileLayers {
		out = append(out, metricDef{l + ".cpu_share", "ratio"})
	}
	out = append(out,
		metricDef{"sim.handoff_share", "ratio"},
		metricDef{"sim.cluster_share", "ratio"},
		metricDef{"gc.cpu_share", "ratio"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.pause_ms", "ms"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"sim.ns_per_wake", "ns"},
		metricDef{"sim.ns_per_sleep", "ns"},
		metricDef{"sim.ns_per_link_msg", "ns"},
		metricDef{"core.ns_per_call", "ns"},
		metricDef{"core.ns_per_call_deep", "ns"},
		metricDef{"oltp.ns_per_retrier_call", "ns"},
		metricDef{"oltp.ns_per_router_call", "ns"},
		metricDef{"stats.ns_per_record", "ns"},
	)
	return append(out, perTransport(modelLayers...)...)
}()

func perTransport(defs ...metricDef) []metricDef {
	var out []metricDef
	for _, d := range defs {
		for _, t := range transports {
			out = append(out, metricDef{d.Name + "_" + t.Suffix, d.Unit})
		}
	}
	return out
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// collect builds the metrics object for defs from values, failing when a
// value is missing or not a finite number.
func collect(defs []metricDef, values map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = Metric{v, d.Unit}
	}
	return out, nil
}

// printTable writes every metric as an aligned "name value unit" line,
// sorted by name, ahead of the JSON result line.
func printTable(w io.Writer, metrics map[string]Metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// printResult writes the result as one JSON line.
func printResult(w io.Writer, r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
