// Wall-clock benchmark reporting. The simulated quantities the
// experiments produce are deterministic; how long the simulator takes to
// produce them is the perf trajectory this repo tracks across PRs.
// `dipcbench bench` wraps each scenario it runs with a timer and
// serializes the result in the repo's BENCH_*.json shape, so one
// baseline can be diffed against the next (bench -compare).

package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// BenchSchema identifies the report layout, the only one
// LoadBenchReport reads; bump it if fields change incompatibly. Each
// scenario is measured over multiple runs after unmeasured warmup
// iterations, with min and median recorded alongside the mean, and each
// entry records its resolved parameters: two entries measure the same
// thing only if their parameters match.
const BenchSchema = "dipc-bench/v3"

// BenchReport is the top-level document emitted as BENCH_*.json.
type BenchReport struct {
	Schema      string       `json:"schema"`
	GoVersion   string       `json:"go_version"`
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	Parallelism int          `json:"parallelism"`
	StartedAt   string       `json:"started_at"` // RFC 3339, wall clock
	Results     []BenchEntry `json:"results"`
}

// BenchEntry is one timed experiment.
type BenchEntry struct {
	Name     string            `json:"name"`
	Params   map[string]string `json:"params,omitempty"` // resolved scenario parameters
	Runs     int               `json:"runs"`
	Warmup   int               `json:"warmup,omitempty"` // unmeasured runs before the timer
	WallNs   int64             `json:"wall_ns"`          // total across the measured runs
	MinNs    int64             `json:"min_ns,omitempty"`
	MedianNs int64             `json:"median_ns,omitempty"`
	NsPerRun float64           `json:"ns_per_run"` // mean: WallNs / Runs
}

// NewBenchReport returns a report stamped with the current toolchain,
// host shape and wall-clock start time.
func NewBenchReport() *BenchReport {
	return &BenchReport{
		Schema:      BenchSchema,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Parallelism: Parallelism(),
		StartedAt:   time.Now().UTC().Format(time.RFC3339), //dipcvet:wallclock-ok host-side run metadata, never digested
	}
}

// TimeRuns times fn: `warmup` unmeasured runs (warm caches, page in the
// working set) followed by `runs` individually timed runs, appended as
// one entry with min/median/mean and the scenario's resolved params, so
// a baseline diff can tell a slower simulator from a bigger workload.
// runs < 1 clamps to 1; warmup < 0 to 0.
func (r *BenchReport) TimeRuns(name string, runs, warmup int, params map[string]string, fn func()) {
	if runs < 1 {
		runs = 1
	}
	if warmup < 0 {
		warmup = 0
	}
	for i := 0; i < warmup; i++ {
		fn()
	}
	samples := make([]int64, runs)
	var wall int64
	for i := 0; i < runs; i++ {
		start := time.Now() //dipcvet:wallclock-ok host-side bench timing, reported but never digested
		fn()
		samples[i] = time.Since(start).Nanoseconds() //dipcvet:wallclock-ok host-side bench timing, reported but never digested
		wall += samples[i]
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	median := sorted[runs/2]
	if runs%2 == 0 {
		median = (sorted[runs/2-1] + sorted[runs/2]) / 2
	}
	r.Results = append(r.Results, BenchEntry{
		Name:     name,
		Params:   params,
		Runs:     runs,
		Warmup:   warmup,
		WallNs:   wall,
		MinNs:    sorted[0],
		MedianNs: median,
		NsPerRun: float64(wall) / float64(runs),
	})
}

// WriteFile serializes the report as indented JSON at path.
func (r *BenchReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchReport reads a BENCH_*.json report from disk. Any schema
// other than BenchSchema is an error naming the schema found.
func LoadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, BenchSchema)
	}
	return &r, nil
}
