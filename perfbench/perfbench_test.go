package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMetricNames pins the naming rules of every reported metric and
// that no name is used twice.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName.MatchString(d.Name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _, . and -", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
	}
}

// TestBenchmarkJSONMatchesTables requires BENCHMARK.json to declare
// exactly the metrics this program prints, with the same units, and
// exactly its workloads.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// Protocol-buffer encoding helpers for the synthetic profile.
func pbVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func pbField(b []byte, num int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = pbVarint(b, uint64(num)<<3|2)
	b = pbVarint(b, uint64(len(data)))
	return append(b, data...)
}

func pbPacked(b []byte, num int, xs ...uint64) []byte {
	var inner []byte
	for _, x := range xs {
		inner = pbVarint(inner, x)
	}
	return pbBytes(b, num, inner)
}

// syntheticProfile builds a gzipped profile.proto holding the given
// stacks (leaf first) with their CPU nanoseconds. The first stack's two
// innermost functions share one location, as an inlined call does.
func syntheticProfile(stacks [][]string, values []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	index := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := index[s]; ok {
			return i
		}
		strs = append(strs, s)
		index[s] = uint64(len(strs) - 1)
		return index[s]
	}
	var msg []byte
	msg = pbBytes(msg, fProfileSampleType, pbField(pbField(nil, 1, 1), 2, 2))
	msg = pbBytes(msg, fProfileSampleType, pbField(pbField(nil, 1, 3), 2, 4))
	funcID := map[string]uint64{}
	fn := func(name string) uint64 {
		id, ok := funcID[name]
		if !ok {
			id = uint64(len(funcID) + 1)
			funcID[name] = id
			msg = pbBytes(msg, fProfileFunction, pbField(pbField(nil, fFunctionID, id), fFunctionName, str(name)))
		}
		return id
	}
	nextLoc := uint64(0)
	location := func(names ...string) uint64 {
		nextLoc++
		loc := pbField(nil, fLocationID, nextLoc)
		for _, n := range names {
			loc = pbBytes(loc, fLocationLine, pbField(nil, fLineFunction, fn(n)))
		}
		msg = pbBytes(msg, fProfileLocation, loc)
		return nextLoc
	}
	for i, st := range stacks {
		var locs []uint64
		rest := st
		if i == 0 {
			locs = append(locs, location(st[0], st[1]))
			rest = st[2:]
		}
		for _, name := range rest {
			locs = append(locs, location(name))
		}
		sample := pbPacked(nil, fSampleLocation, locs...)
		sample = pbPacked(sample, fSampleValue, 1, uint64(values[i]))
		msg = pbBytes(msg, fProfileSample, sample)
	}
	for _, s := range strs {
		msg = pbBytes(msg, fProfileStrings, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(msg)
	zw.Close()
	return buf.Bytes()
}

// TestAttributionOnSyntheticProfile checks the reader and the layer
// attribution on a profile whose answer is known: runtime frames are
// charged to the innermost repository frame, samples without one go to
// "other", and the cross-cutting rows pick out handoff, GC and cluster
// samples.
func TestAttributionOnSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/sim.(*Engine).dispatch", "repro/internal/sim.(*Engine).Step", "repro/internal/apps/oltp.Run"},
		{"runtime.chanrecv1", "repro/internal/sim.(*Proc).park", "repro/internal/kernel.(*Thread).Exec"},
		{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/core.(*Runtime).call"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"repro/internal/sim.(*Cluster).run", "repro/internal/apps/oltp.RunReplicated"},
		{"repro/internal/codoms.check", "repro/internal/mem.(*TLB).Lookup"},
		{"repro/internal/stats.(*Histogram).Record[go.shape.int64]"},
	}
	values := []int64{40, 20, 10, 10, 10, 5, 5}
	p, err := parseProfile(syntheticProfile(stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(p.samples), len(stacks))
	}
	for i, s := range p.samples {
		if strings.Join(s.stack, ",") != strings.Join(stacks[i], ",") || s.value != values[i] {
			t.Errorf("sample %d decoded as %v %d", i, s.stack, s.value)
		}
	}
	got := attribute(p).shares()
	want := map[string]float64{
		"sim.cpu_share":     0.70, // 40 engine + 20 handoff under sim + 10 cluster
		"core.cpu_share":    0.15, // 10 malloc under core + 5 codoms
		"runtime.cpu_share": 0.10, // the GC worker has no repository frame
		"other.cpu_share":   0,
		"stats.cpu_share":   0.05,
		"kernel.cpu_share":  0,
		"oltp.cpu_share":    0,
		"sim.handoff_share": 0.20,
		"gc.cpu_share":      0.20,
		"sim.cluster_share": 0.10,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	var sum float64
	for _, l := range profileLayers {
		sum += got[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if _, err := parseProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("a truncated profile was accepted")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":        "repro/internal/sim",
		"repro/internal/apps/oltp.Run.func1":       "repro/internal/apps/oltp",
		"runtime.gopark":                           "runtime",
		"internal/runtime/syscall.Syscall6":        "internal/runtime/syscall",
		"repro/internal/sim.f[repro/internal/x.T]": "repro/internal/sim",
		"main.main": "main",
		"repro/internal/apps/netpipe.(*NIC).Transmit": "repro/internal/apps/netpipe",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// goodPair is a pair that passes every output check.
func goodPair(hedges float64) pair {
	mk := func(kops, lat, tail float64) modeled {
		return modeled{Requests: 100, OK: 100, Kops: kops, LatUS: lat, TailUS: tail, Samples: 100,
			Layers: map[string]float64{"oltp.hedges": hedges}}
	}
	return pair{mk(10, 200, 900), mk(20, 100, 400)}
}

// TestChecksRejectDoctoredResults feeds the output checks results each
// doctored to break one of them.
func TestChecksRejectDoctoredResults(t *testing.T) {
	if errs := checkPair(replicas, goodPair(5)); len(errs) != 0 {
		t.Fatalf("a good pair failed: %v", errs)
	}
	for name, doctor := range map[string]func(p *pair){
		"no requests":       func(p *pair) { p[1].OK = 0 },
		"no latency sample": func(p *pair) { p[0].Samples = 0 },
		"zero latency":      func(p *pair) { p[0].LatUS = 0 },
		"NaN throughput":    func(p *pair) { p[0].Kops = math.NaN() },
		"infinite tail":     func(p *pair) { p[0].TailUS = math.Inf(1) },
		"dIPC slower":       func(p *pair) { p[1].Kops = 5 },
		"dIPC higher mean":  func(p *pair) { p[1].LatUS = 300 },
		"dIPC higher tail":  func(p *pair) { p[1].TailUS = 1000 },
		"no hedges":         func(p *pair) { p[0].Layers["oltp.hedges"] = 0 },
	} {
		p := goodPair(5)
		doctor(&p)
		if errs := checkPair(replicas, p); len(errs) == 0 {
			t.Errorf("%s: the checks passed a doctored pair", name)
		}
	}
	if errs := checkPair(fig8, goodPair(0)); len(errs) != 0 {
		t.Errorf("fig8 is not required to hedge: %v", errs)
	}

	a, b := goodPair(5), goodPair(5)
	if err := samePair("test", a, b); err != nil {
		t.Errorf("identical pairs differ: %v", err)
	}
	b[1].Layers["oltp.hedges"] = math.Nextafter(5, 6)
	if err := samePair("test", a, b); err == nil || !strings.Contains(err.Error(), "oltp.hedges") {
		t.Errorf("a one-ulp change went unnamed: %v", err)
	}
}

func TestCollectRejectsMissingAndNonFinite(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "s"}}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": math.Inf(1)}); err == nil {
		t.Error("an infinite metric was accepted")
	}
	m, err := collect(defs, map[string]float64{"a": 1, "b": 2, "c": 3})
	if err != nil || len(m) != 2 || m["b"] != (Metric{2, "s"}) {
		t.Errorf("collect = %v, %v", m, err)
	}
}

// TestWorkloadSmoke runs every workload through the real code path with
// a tiny simulated window: both transports complete requests, report
// every modeled layer, and repeat bit-for-bit; the set-up call returns.
func TestWorkloadSmoke(t *testing.T) {
	tiny := map[string]sim.Time{"fig8": sim.Millis(20), "openloop": sim.Millis(5), "replicas": sim.Millis(5)}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func() pair {
				var p pair
				for i, tr := range transports {
					p[i] = w.run(7, tr.DIPC, 2, tiny[w.name])
				}
				return p
			}
			a := run()
			if err := samePair("a second run", a, run()); err != nil {
				t.Error(err)
			}
			for i, m := range a {
				if m.Requests <= 0 || m.OK <= 0 {
					t.Errorf("%s completed no requests: %+v", transports[i].Suffix, m)
				}
				for _, d := range modelLayers {
					if _, ok := m.Layers[d.Name]; !ok {
						t.Errorf("%s lacks modeled layer %s", transports[i].Suffix, d.Name)
					}
				}
			}
			for _, tr := range transports {
				w.setup(7, tr.DIPC)
			}
		})
	}
}

// TestProbesRun runs every layer probe once, briefly. At this size the
// differenced cross-call probes can read 0, so only a negative time fails.
func TestProbesRun(t *testing.T) {
	for _, p := range probes {
		if d := p.run(p.n / 100); d < 0 {
			t.Errorf("%s measured %v", p.name, d)
		}
	}
}
