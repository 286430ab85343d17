package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden stress trace from the current run instead
// of comparing against it: go test -run TestDispatchStressGolden -update.
// A re-pin is then reviewed as the git diff of testdata.
var update = flag.Bool("update", false, "rewrite testdata/dispatch_stress.txt from the current run")

// goldenStressTrace pins the full dispatch trace of the randomized
// stress workload below (seed 7, 6 procs, 120 steps each), captured from
// the pre-handoff engine (dedicated engine goroutine, commit 77a21e0).
// The coroutine dispatch core must reproduce it byte for byte, on
// every drive mode: (at, seq) delivery order is the determinism contract
// of the whole reproduction.
var goldenStressTrace = filepath.Join("testdata", "dispatch_stress.txt")

// stressDriveModes are the two ways a caller can drive the engine; both
// must deliver the identical event sequence.
var stressDriveModes = []string{"run", "until"}

// stressTrace runs nProcs procs through `steps` randomized
// Sleep/Wait/WakeOne/timed-wait/wakeAll operations over two shared
// WaitQueues, recording every operation with its simulated timestamp, and
// returns the trace, one operation a line.
// Background wakeAll ticks bound how long plain Waits can block.
func stressTrace(seed uint64, nProcs, steps int, drive string) string {
	e := NewEngine(seed)
	var q, q2 WaitQueue
	var sb strings.Builder
	for i := 0; i < nProcs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), Time(i%7), func(p *Proc) {
			r := e.Rand()
			for s := 0; s < steps; s++ {
				fmt.Fprintf(&sb, "%d %s %d", int64(p.eng.now), p.name, s)
				switch r.Intn(7) {
				case 0:
					p.Sleep(Time(r.Intn(50)))
					sb.WriteString(" slept\n")
				case 1:
					woke := q.WakeOne(Time(r.Intn(4)), s)
					fmt.Fprintf(&sb, " wakeone %v\n", woke)
				case 2:
					v, ok := waitTimeout(&q, p, Time(r.Intn(40)+1))
					fmt.Fprintf(&sb, " waittimeout %v %v\n", v, ok)
				case 3:
					n := wakeAll(&q)
					fmt.Fprintf(&sb, " wakeall %d\n", n)
					p.Sleep(Time(r.Intn(9)))
				case 4:
					v, ok := waitTimeout(&q2, p, Time(r.Intn(25)+1))
					fmt.Fprintf(&sb, " wt2 %v %v\n", v, ok)
				case 5:
					woke := q2.WakeOne(0, s)
					fmt.Fprintf(&sb, " wake2 %v\n", woke)
				case 6:
					v := q.Wait(p)
					fmt.Fprintf(&sb, " waited %v\n", v)
				}
			}
			fmt.Fprintf(&sb, "%d %s done\n", int64(p.eng.now), p.name)
		})
	}
	// Background wakers so plain Waits cannot block forever: wake all of both
	// queues every 25 simulated units across a horizon far beyond the
	// workload's natural span.
	for tick := Time(25); tick < 40000; tick += 25 {
		e.At(tick, func() {
			wakeAll(&q)
			wakeAll(&q2)
		})
	}

	switch drive {
	case "run":
		e.Run()
	case "until":
		for t := Time(500); t <= 40500; t += 500 {
			e.RunUntil(t)
		}
		e.Run()
	default:
		panic("unknown drive mode " + drive)
	}
	fmt.Fprintf(&sb, "final live=%d pending=%d\n", e.live, e.events.size())
	return sb.String()
}

// TestDispatchStressGolden pins the randomized stress trace to the file
// captured from the pre-handoff engine, for every drive mode. With
// -update it rewrites the file from the run drive instead.
func TestDispatchStressGolden(t *testing.T) {
	if *update {
		if err := os.WriteFile(goldenStressTrace, []byte(stressTrace(7, 6, 120, "run")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenStressTrace)
	if err != nil {
		t.Fatal(err)
	}
	for _, drive := range stressDriveModes {
		got := stressTrace(7, 6, 120, drive)
		if lines := strings.Count(got, "\n"); lines < 6*120 {
			t.Fatalf("drive=%s: trace suspiciously short (%d lines)", drive, lines)
		}
		if got != string(want) {
			t.Errorf("drive=%s: stress trace diverged from %s: %s",
				drive, goldenStressTrace, firstDifferentLine(string(want), got))
		}
	}
}

// firstDifferentLine names the first line where got departs from want.
func firstDifferentLine(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < min(len(wl), len(gl)); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d is %q, want %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(gl), len(wl))
}

// TestDispatchStressDriveModesAgree cross-checks more seeds without a
// pinned golden: Run and RunUntil-windowed drives must deliver the
// identical trace, and repeated runs must be deterministic.
func TestDispatchStressDriveModesAgree(t *testing.T) {
	seeds := []uint64{1, 2, 3, 11}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ref := stressTrace(seed, 5, 80, "run")
		again := stressTrace(seed, 5, 80, "run")
		if again != ref {
			t.Fatalf("seed %d: run drive is not deterministic", seed)
		}
		for _, drive := range stressDriveModes[1:] {
			if got := stressTrace(seed, 5, 80, drive); got != ref {
				t.Errorf("seed %d: drive=%s diverged from run drive", seed, drive)
			}
		}
	}
}

// TestRunReturnsOnDeadlock: when every live proc is parked with no event
// that can wake it, Run must return (rather than hang) with live procs > 0 so
// the caller can diagnose the deadlock; a later wake lets the simulation
// resume normally.
func TestRunReturnsOnDeadlock(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	const n = 3
	finished := 0
	for i := 0; i < n; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), 0, func(p *Proc) {
			q.Wait(p)
			finished++
		})
	}
	e.Run()
	if e.live != n {
		t.Fatalf("live procs = %d after deadlocked Run, want %d", e.live, n)
	}
	if e.events.size() != 0 || e.events.live() != 0 {
		t.Fatalf("deadlocked Run left Pending=%d live events=%d, want 0/0", e.events.size(), e.events.live())
	}
	if finished != 0 {
		t.Fatalf("finished = %d, want 0 (all procs parked)", finished)
	}
	// The deadlock is recoverable: wake everybody and drain.
	wakeAll(&q)
	e.Run()
	if e.live != 0 || finished != n {
		t.Fatalf("after wakeAll: live=%d finished=%d, want 0/%d", e.live, finished, n)
	}
}
