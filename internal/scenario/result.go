package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Schema identifies the canonical JSON result encoding; bump it if the
// document layout changes incompatibly.
const Schema = "dipc-scenario/v1"

// Result is the uniform outcome model every scenario produces: labeled
// series of measurements, optional headline notes, and the resolved
// parameter values the run used. Text carries a pinned legacy rendering
// for the scenarios converted from the original Render() methods (the
// golden digests require their output byte-identical); scenarios built
// against this API leave it empty and get the shared generic renderer.
type Result struct {
	Scenario string            `json:"scenario"`
	Params   map[string]string `json:"params,omitempty"`
	Series   []Series          `json:"series"`
	Notes    []string          `json:"notes,omitempty"`
	Text     string            `json:"-"`
}

// Series is one labeled sequence of points sharing a unit.
type Series struct {
	Label  string  `json:"label"`
	Unit   string  `json:"unit,omitempty"`
	Points []Point `json:"points"`
}

// Point is one measurement: a numeric X (sweep axis position), an
// optional categorical label, the measured Y, and an optional per-CPU
// time breakdown.
type Point struct {
	Label  string     `json:"label,omitempty"`
	X      float64    `json:"x"`
	Y      float64    `json:"y"`
	PerCPU []CPUSlice `json:"per_cpu,omitempty"`
}

// CPUSlice is one CPU's time breakdown at a point, in nanoseconds per
// accounting block (keyed by the paper's block labels).
type CPUSlice struct {
	CPU    int                `json:"cpu"`
	Blocks map[string]float64 `json:"blocks"`
}

// MarshalCanonical serializes the result as the dipc-scenario/v1
// document. The encoding is canonical — struct fields in declaration
// order, map keys sorted (encoding/json), shortest float representation,
// no wall-clock or host fields — so equal results always digest to equal
// bytes, which is what the golden SHA-256 coverage hashes.
func (r *Result) MarshalCanonical() ([]byte, error) {
	doc := struct {
		Schema   string            `json:"schema"`
		Scenario string            `json:"scenario"`
		Params   map[string]string `json:"params,omitempty"`
		Series   []Series          `json:"series"`
		Notes    []string          `json:"notes,omitempty"`
	}{Schema, r.Scenario, r.Params, r.Series, r.Notes}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// RenderText returns the scenario's text rendering: the pinned legacy
// text when set, else a generic rendering of the series — a joint table
// when every series shares the same X axis, a per-series listing
// otherwise. The result always ends with exactly one newline.
func (r *Result) RenderText() string {
	if r.Text != "" {
		return r.Text
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== scenario %s ==\n", r.Scenario)
	if len(r.Params) > 0 {
		keys := make([]string, 0, len(r.Params))
		for k := range r.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]string, len(keys))
		for i, k := range keys {
			pairs[i] = k + "=" + r.Params[k]
		}
		fmt.Fprintf(&sb, "params: %s\n", strings.Join(pairs, " "))
	}
	if r.sharedAxis() {
		r.renderTable(&sb)
	} else {
		r.renderList(&sb)
	}
	for _, n := range r.Notes {
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sharedAxis reports whether every series has the same point axis
// (same X values and labels), so they can render as one table.
func (r *Result) sharedAxis() bool {
	if len(r.Series) < 2 {
		return len(r.Series) == 1
	}
	first := r.Series[0].Points
	for _, s := range r.Series[1:] {
		if len(s.Points) != len(first) {
			return false
		}
		for i, p := range s.Points {
			if p.X != first[i].X || p.Label != first[i].Label {
				return false
			}
		}
	}
	return true
}

// axisName labels the shared X column.
func axisLabel(p Point) string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("%g", p.X)
}

// seriesHeader is the column/list header for one series.
func seriesHeader(s Series) string {
	if s.Unit != "" {
		return fmt.Sprintf("%s [%s]", s.Label, s.Unit)
	}
	return s.Label
}

func (r *Result) renderTable(sb *strings.Builder) {
	tab := stats.Table{Columns: []string{"x"}}
	for _, s := range r.Series {
		tab.Columns = append(tab.Columns, seriesHeader(s))
	}
	for i, p := range r.Series[0].Points {
		row := []string{axisLabel(p)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.6g", s.Points[i].Y))
		}
		tab.AddRow(row...)
	}
	sb.WriteString(tab.String())
}

func (r *Result) renderList(sb *strings.Builder) {
	for _, s := range r.Series {
		fmt.Fprintf(sb, "%s:\n", seriesHeader(s))
		for _, p := range s.Points {
			fmt.Fprintf(sb, "  %-26s %.6g\n", axisLabel(p), p.Y)
		}
	}
}
