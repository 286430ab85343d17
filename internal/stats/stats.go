// Package stats accumulates simulated-time breakdowns in the same
// categories the paper uses, and renders tables of results as text.
//
// Figure 2 of the paper decomposes IPC round trips into seven blocks:
// (1) user code, (2) syscall+2×swapgs+sysret, (3) syscall dispatch
// trampoline, (4) kernel/privileged code, (5) schedule/context switch,
// (6) page table switch, and (7) idle/IO wait. The simulated kernel
// charges every picosecond it models into one of these buckets (plus a
// few dIPC-specific ones used by the analysis sections), so the breakdown
// figures can be regenerated directly.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Block identifies one time-accounting category.
type Block int

// The block categories. The first seven match Fig. 2 of the paper.
const (
	BlockUser     Block = iota // (1) user code
	BlockSyscall               // (2) syscall + 2×swapgs + sysret
	BlockDispatch              // (3) syscall dispatch trampoline
	BlockKernel                // (4) kernel / privileged code
	BlockSched                 // (5) schedule / context switch
	BlockPT                    // (6) page table switch
	BlockIdle                  // (7) idle / IO wait
	BlockProxy                 // dIPC trusted proxy code
	BlockStub                  // dIPC user-level isolation stubs
	BlockTLS                   // dIPC TLS segment switch (wrfsbase)
	NumBlocks
)

var blockNames = [NumBlocks]string{
	"User code",
	"syscall+2xswapgs+sysret",
	"Syscall dispatch trampoline",
	"Kernel / privileged code",
	"Schedule / ctxt. switch",
	"Page table switch",
	"Idle / IO wait",
	"dIPC proxy",
	"dIPC user stubs",
	"dIPC TLS switch",
}

// String returns the paper's label for the block.
func (b Block) String() string {
	if b < 0 || b >= NumBlocks {
		return fmt.Sprintf("Block(%d)", int(b))
	}
	return blockNames[b]
}

// Breakdown is a per-block accumulation of simulated time.
type Breakdown [NumBlocks]sim.Time

// Add charges d into block b.
func (bd *Breakdown) Add(b Block, d sim.Time) {
	if d <= 0 {
		return
	}
	bd[b] += d
}

// Total returns the sum over all blocks.
func (bd *Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range bd {
		t += v
	}
	return t
}

// Busy returns the sum over all blocks except idle.
func (bd *Breakdown) Busy() sim.Time {
	return bd.Total() - bd[BlockIdle]
}

// Sub returns bd - other, element-wise (used to diff snapshots around a
// measurement window).
func (bd Breakdown) Sub(other Breakdown) Breakdown {
	var out Breakdown
	for i := range bd {
		out[i] = bd[i] - other[i]
	}
	return out
}

// AddAll accumulates other into bd.
func (bd *Breakdown) AddAll(other Breakdown) {
	for i := range bd {
		bd[i] += other[i]
	}
}

// Scale returns the breakdown divided by n (e.g. per-iteration costs).
func (bd Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		return bd
	}
	var out Breakdown
	for i := range bd {
		out[i] = bd[i] / sim.Time(n)
	}
	return out
}

// Share returns the blocks' summed fraction of the total, in [0,1].
func (bd *Breakdown) Share(blocks ...Block) float64 {
	t := bd.Total()
	if t == 0 {
		return 0
	}
	var sum sim.Time
	for _, b := range blocks {
		sum += bd[b]
	}
	return float64(sum) / float64(t)
}

// Series is a labelled sequence of (x, y) points, the unit figures are
// built from.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders labelled rows of named columns as aligned ASCII, used by
// the cmd/dipcbench output.
type Table struct {
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
