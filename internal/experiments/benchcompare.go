// Baseline comparison for BENCH_*.json reports: the data model behind
// `dipcbench bench -compare`, and the perf-smoke CI job built on it.

package experiments

import (
	"fmt"
	"maps"
	"sort"
)

// BenchDelta is one scenario's baseline-vs-current comparison.
type BenchDelta struct {
	Name   string
	BaseNs float64 // 0 when the scenario is new
	CurNs  float64 // 0 when the scenario exists only in the baseline
	Pct    float64 // 100*(cur-base)/base, meaningful when both sides exist
	// ParamsDiffer marks a scenario both sides ran with different
	// resolved parameters: a different workload, not a slower simulator.
	ParamsDiffer bool
}

// Comparable reports whether both sides measured the scenario with the
// same parameters.
func (d BenchDelta) Comparable() bool { return d.BaseNs > 0 && d.CurNs > 0 && !d.ParamsDiffer }

// Regressed reports whether the scenario got slower than the baseline by
// more than threshold percent.
func (d BenchDelta) Regressed(threshold float64) bool {
	return d.Comparable() && d.Pct > threshold
}

// CompareReports matches entries by scenario name: current-report order
// first, then baseline-only scenarios in baseline order. Duplicate names
// keep the first occurrence, matching how reports are generated (one
// entry per selected scenario).
func CompareReports(base, cur *BenchReport) []BenchDelta {
	baseBy := map[string]*BenchEntry{}
	for i := range base.Results {
		e := &base.Results[i]
		if _, dup := baseBy[e.Name]; !dup {
			baseBy[e.Name] = e
		}
	}
	var out []BenchDelta
	seen := map[string]bool{}
	for i := range cur.Results {
		e := &cur.Results[i]
		if seen[e.Name] {
			continue
		}
		seen[e.Name] = true
		d := BenchDelta{Name: e.Name, CurNs: float64(e.MedianNs)}
		if b, ok := baseBy[e.Name]; ok {
			d.BaseNs = float64(b.MedianNs)
			d.ParamsDiffer = !maps.Equal(b.Params, e.Params)
			if d.BaseNs > 0 {
				d.Pct = 100 * (d.CurNs - d.BaseNs) / d.BaseNs
			}
		}
		out = append(out, d)
	}
	for i := range base.Results {
		e := &base.Results[i]
		if !seen[e.Name] {
			seen[e.Name] = true
			out = append(out, BenchDelta{Name: e.Name, BaseNs: float64(e.MedianNs)})
		}
	}
	return out
}

// MedianPct returns the median percentage delta over the comparable
// scenarios (0 when none are; entries whose params differ are left
// out). It is the machine-speed normalizer for gated comparisons: a
// baseline captured on a different-class host shifts every scenario by
// roughly the same factor, so a scenario's delta relative to the suite
// median isolates genuine per-path regressions from host drift.
func MedianPct(deltas []BenchDelta) float64 {
	var pcts []float64
	for _, d := range deltas {
		if d.Comparable() {
			pcts = append(pcts, d.Pct)
		}
	}
	if len(pcts) == 0 {
		return 0
	}
	sort.Float64s(pcts)
	n := len(pcts)
	if n%2 == 1 {
		return pcts[n/2]
	}
	return (pcts[n/2-1] + pcts[n/2]) / 2
}

// RegressedRelative reports whether the scenario got slower than the
// suite's median delta by more than threshold percentage points.
func (d BenchDelta) RegressedRelative(median, threshold float64) bool {
	return d.Comparable() && d.Pct-median > threshold
}

// FmtNs renders a nanosecond quantity at log-friendly precision.
func FmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
