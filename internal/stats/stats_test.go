package stats

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBreakdownAddTotal(t *testing.T) {
	var bd Breakdown
	bd.Add(BlockUser, 10*sim.Nanosecond)
	bd.Add(BlockKernel, 20*sim.Nanosecond)
	bd.Add(BlockIdle, 5*sim.Nanosecond)
	if bd.Total() != 35*sim.Nanosecond {
		t.Fatalf("Total = %v, want 35ns", bd.Total())
	}
	if bd.Busy() != 30*sim.Nanosecond {
		t.Fatalf("Busy = %v, want 30ns", bd.Busy())
	}
}

func TestBreakdownAddNegativeIgnored(t *testing.T) {
	var bd Breakdown
	bd.Add(BlockUser, -sim.Nanosecond)
	if bd.Total() != 0 {
		t.Fatal("negative charge should be ignored")
	}
}

func TestBreakdownSubRoundTrip(t *testing.T) {
	f := func(a, b uint32) bool {
		var x, y Breakdown
		x.Add(BlockUser, sim.Time(a))
		y.Add(BlockUser, sim.Time(b))
		diff := x.Sub(y)
		return diff[BlockUser] == sim.Time(a)-sim.Time(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownScale(t *testing.T) {
	var bd Breakdown
	bd.Add(BlockUser, 100*sim.Nanosecond)
	s := bd.Scale(4)
	if s[BlockUser] != 25*sim.Nanosecond {
		t.Fatalf("Scale(4) = %v, want 25ns", s[BlockUser])
	}
	// Scaling by non-positive is identity.
	if bd.Scale(0)[BlockUser] != 100*sim.Nanosecond {
		t.Fatal("Scale(0) should be identity")
	}
}

func TestBreakdownShare(t *testing.T) {
	var bd Breakdown
	bd.Add(BlockUser, 30*sim.Nanosecond)
	bd.Add(BlockIdle, 70*sim.Nanosecond)
	if got := bd.Share(BlockIdle); got < 0.699 || got > 0.701 {
		t.Fatalf("Share(idle) = %v, want 0.7", got)
	}
	if got := bd.Share(BlockUser, BlockIdle); got != 1 {
		t.Fatalf("Share(user, idle) = %v, want 1", got)
	}
	var zero Breakdown
	if zero.Share(BlockUser) != 0 {
		t.Fatal("empty breakdown share must be 0")
	}
}

func TestBlockNames(t *testing.T) {
	if BlockUser.String() != "User code" {
		t.Fatalf("BlockUser = %q", BlockUser.String())
	}
	if !strings.Contains(BlockSched.String(), "ctxt") {
		t.Fatalf("BlockSched = %q", BlockSched.String())
	}
	if Block(99).String() != "Block(99)" {
		t.Fatalf("out of range = %q", Block(99).String())
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Columns: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "22")
	s := tb.String()
	if !strings.Contains(s, "name") || !strings.Contains(s, "alpha") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, rule, 2 rows), got %d:\n%s", len(lines), s)
	}
	if lines[1] != "-----  -----" || lines[3] != "beta   22" {
		t.Fatalf("columns not aligned:\n%s", s)
	}
}

func TestSeriesAdd(t *testing.T) {
	var s Series
	s.Add(1, 2)
	s.Add(3, 4)
	if len(s.X) != 2 || s.Y[1] != 4 {
		t.Fatalf("series = %+v", s)
	}
}
