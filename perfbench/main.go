// Command perfbench is the repository's benchmark. It runs one named
// workload through the public oltp runners, Linux sockets then dIPC
// proxies, and measures the program only from outside: it times its own
// calls, reads process counters, takes a CPU profile, and reads public
// result fields.
//
// With --trace 0 it prints the end-to-end metrics: the simulator's host
// cost (wall and CPU time, set-up time, allocations, peak memory) and the
// modeled dIPC-vs-Linux results. With --trace 1 it prints the per-layer
// metrics instead: CPU-profile shares by package, direct layer probes,
// and modeled per-layer quantities. Every run checks the simulated
// outputs (see checks.go); the last line of standard output is a JSON
// result object.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload fig8 --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 5 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig8, openloop or replicas")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		steady  = flag.Int("steady", 0, "runs per set: run two alternating sets of every workload and report their spread")
		batch   = flag.Bool("batch", false, "internal: measure one batch in this process and print it as JSON")
		profile = flag.String("profile", "", "internal, with --batch: write a CPU profile of the measured pairs here")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, *name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig8|openloop|replicas, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(w.procs)
	if *batch {
		b, err := json.Marshal(runBatch(w, *seed, *profile))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", b)
		return
	}
	fmt.Println(hostContext())

	var r run
	if *trace == 1 {
		r = traced(w, *seed, *seconds)
	} else {
		r = untraced(w, *seed, *seconds)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics, err := collect(defs, r.values)
	if err != nil {
		r.fail(err)
		metrics = map[string]Metric{}
	}
	printTable(os.Stdout, metrics)
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", e)
	}
	res := Result{Correct: len(r.errs) == 0, Attempted: r.calls, Failed: len(r.errs), Metrics: metrics}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run is what one benchmark run produced.
type run struct {
	values map[string]float64
	calls  int     // runner calls measured
	errs   []error // failed output checks
}

func (r *run) fail(err error) { r.errs = append(r.errs, err) }

// pair is one transport pair at one seed, Linux first.
type pair [2]modeled

// runPair runs both transports of w once.
func runPair(w *workload, seed uint64, shards int) pair {
	var p pair
	for i, t := range transports {
		p[i] = w.run(seed, t.DIPC, shards, w.window)
	}
	return p
}

// setupReps is how many times set-up is measured; setup_s is the median.
const setupReps = 51

// untraced is a --trace 0 run: set-up time, then as many batches of
// measured pairs as fit in the time given, then the end-to-end metrics.
func untraced(w *workload, seed uint64, seconds float64) run {
	r := run{values: map[string]float64{}}

	var setups, refs0 []float64
	for i := -1; i < setupReps; i++ { // i == -1 warms up
		if i%10 == 0 {
			refs0 = append(refs0, pingPongMs())
		}
		t0 := time.Now()
		for _, t := range transports {
			w.setup(seed, t.DIPC)
		}
		if i >= 0 {
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	refs0 = append(refs0, pingPongMs())
	r.values["setup_s"] = median(setups) * hostScale(median(refs0))

	var refs []pair
	costs, rss, _ := batches(&r, w, seed, time.Duration(seconds*float64(time.Second)), false, &refs)
	if refs == nil {
		return r
	}
	perReq := func(f func(hostCost) float64) float64 {
		return median(field(costs, func(c hostCost) float64 { return f(c) / c.Requests }))
	}
	ref := median(field(costs, func(c hostCost) float64 { return c.PingPongMs }))
	wall := median(field(costs, func(c hostCost) float64 { return c.WallS }))
	cpu := median(field(costs, func(c hostCost) float64 { return c.CPUS }))
	r.values["wall_s"] = wall * hostScale(ref)
	r.values["cpu_s"] = cpu * hostScale(ref)
	r.values["allocs_per_req"] = perReq(func(c hostCost) float64 { return c.Mallocs })
	r.values["alloc_bytes_per_req"] = perReq(func(c hostCost) float64 { return c.Bytes })
	r.values["peak_rss_mb"] = median(rss)
	avg := mean(refs)
	for i, t := range transports {
		m := avg[i]
		r.values["model_kops_"+t.Suffix] = m.Kops
		r.values["model_lat_us_"+t.Suffix] = m.LatUS
		r.values["model_tail_us_"+t.Suffix] = m.TailUS
		r.values["model_ok_share_"+t.Suffix] = float64(m.OK) / float64(m.Requests)
		fmt.Printf("%s %s: %d requests, %d ok, %d latency samples over %d windows; latency is the %s\n",
			w.name, t.Suffix, m.Requests, m.OK, m.Samples, len(refs), w.latency)
	}
	fmt.Printf("%s: %d measured pairs in %d processes; as measured, wall %.4gs and cpu %.4gs per pair with the ping-pong reference at %.4gms (set-up %.4gs at %.4gms)\n",
		w.name, len(costs), len(rss), wall, cpu, ref, median(setups), median(refs0))
	return r
}
