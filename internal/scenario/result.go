package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Schema identifies the canonical JSON result encoding; bump it if the
// document layout changes incompatibly.
const Schema = "dipc-scenario/v1"

// Result is the uniform outcome model every scenario produces: labeled
// series of measurements, optional headline notes, and the resolved
// parameter values the run used. The canonical JSON and the text
// rendering are both built from it, so what a reader sees is what the
// golden files pin.
type Result struct {
	Scenario string            `json:"scenario"`
	Params   map[string]string `json:"params,omitempty"`
	Series   []Series          `json:"series"`
	Notes    []string          `json:"notes,omitempty"`
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
// no wall-clock or host fields — so equal results always encode to equal
// bytes, which is what the golden files pin.
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

// RenderText returns the scenario's text rendering. Series are grouped
// by unit, in order of first appearance; a group whose series share one
// X axis prints as one table, any other group as a per-series listing.
// Every point that carries a per-CPU breakdown then prints it as a
// table of blocks by CPU, and the notes close the rendering. The result
// always ends with exactly one newline.
func (r *Result) RenderText() string {
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
	var sections []string
	for _, group := range r.unitGroups() {
		if sharedAxis(group) {
			sections = append(sections, renderTable(group))
		} else {
			sections = append(sections, renderList(group))
		}
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if len(p.PerCPU) > 0 {
				sections = append(sections, renderPerCPU(p))
			}
		}
	}
	sb.WriteString(strings.Join(sections, "\n"))
	for _, n := range r.Notes {
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// unitGroups splits the series by unit, in order of first appearance.
func (r *Result) unitGroups() [][]Series {
	var groups [][]Series
	index := map[string]int{}
	for _, s := range r.Series {
		i, ok := index[s.Unit]
		if !ok {
			i = len(groups)
			index[s.Unit] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], s)
	}
	return groups
}

// sharedAxis reports whether every series has the same point axis
// (same X values and labels), so they can render as one table.
func sharedAxis(series []Series) bool {
	first := series[0].Points
	for _, s := range series[1:] {
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

// axisLabel labels a point's row.
func axisLabel(p Point) string {
	if p.Label != "" {
		return p.Label
	}
	return formatValue(p.X)
}

// seriesHeader is the column/list header for one series.
func seriesHeader(s Series) string {
	if s.Unit != "" {
		return fmt.Sprintf("%s [%s]", s.Label, s.Unit)
	}
	return s.Label
}

// formatValue prints v with six significant digits and never in
// exponent form. A value of a million or more keeps every integer digit
// and drops its fraction.
func formatValue(v float64) string {
	if math.Abs(v) >= 1e6 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	// Parsing FormatFloat's own output cannot fail.
	rounded, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	return strconv.FormatFloat(rounded, 'f', -1, 64)
}

func renderTable(series []Series) string {
	tab := stats.Table{Columns: []string{"x"}}
	for _, s := range series {
		tab.Columns = append(tab.Columns, seriesHeader(s))
	}
	for i, p := range series[0].Points {
		row := []string{axisLabel(p)}
		for _, s := range series {
			row = append(row, formatValue(s.Points[i].Y))
		}
		tab.AddRow(row...)
	}
	return tab.String()
}

func renderList(series []Series) string {
	var sb strings.Builder
	for _, s := range series {
		fmt.Fprintf(&sb, "%s:\n", seriesHeader(s))
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "  %-26s %s\n", axisLabel(p), formatValue(p.Y))
		}
	}
	return sb.String()
}

// renderPerCPU prints a point's per-CPU breakdown: one row per
// accounting block in the paper's Fig. 2 order, one column per CPU, and
// each CPU's total.
func renderPerCPU(p Point) string {
	tab := stats.Table{Columns: []string{axisLabel(p) + " [ns]"}}
	totals := make([]float64, len(p.PerCPU))
	for _, c := range p.PerCPU {
		tab.Columns = append(tab.Columns, fmt.Sprintf("CPU %d", c.CPU))
	}
	for b := stats.Block(0); b < stats.NumBlocks; b++ {
		row, charged := []string{b.String()}, false
		for i, c := range p.PerCPU {
			v, ok := c.Blocks[b.String()]
			charged = charged || ok
			totals[i] += v
			cell := "-"
			if ok {
				cell = formatValue(v)
			}
			row = append(row, cell)
		}
		if charged {
			tab.AddRow(row...)
		}
	}
	row := []string{"total"}
	for _, t := range totals {
		row = append(row, formatValue(t))
	}
	tab.AddRow(row...)
	return tab.String()
}
