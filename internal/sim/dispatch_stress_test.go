package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// goldenStressDigest pins the full dispatch trace of the randomized
// stress workload below (seed 7, 6 procs, 120 steps each), captured from
// the pre-handoff engine (dedicated engine goroutine, commit 77a21e0).
// The direct-handoff dispatch core must reproduce it byte for byte, on
// every drive mode: (at, seq) delivery order is the determinism contract
// of the whole reproduction.
const goldenStressDigest = "e42d33f92bfa187090afbee90b74ecaac7c6e017750fac027712aa40858bd6e2"

// stressDriveModes are the two ways a caller can drive the engine; both
// must deliver the identical event sequence.
var stressDriveModes = []string{"run", "until"}

// stressTrace runs nProcs procs through `steps` randomized
// Sleep/Wait/WakeOne/WaitTimeout/WakeAll operations over two shared
// WaitQueues, recording every operation with its simulated timestamp, and
// returns the SHA-256 digest of the trace plus the number of trace lines.
// Background WakeAll ticks bound how long plain Waits can block.
func stressTrace(seed uint64, nProcs, steps int, drive string) (digest string, lines int) {
	e := NewEngine(seed)
	var q, q2 WaitQueue
	var sb strings.Builder
	for i := 0; i < nProcs; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), Time(i%7), func(p *Proc) {
			r := e.Rand()
			for s := 0; s < steps; s++ {
				fmt.Fprintf(&sb, "%d %s %d", int64(p.Now()), p.Name(), s)
				switch r.Intn(7) {
				case 0:
					p.Sleep(Time(r.Intn(50)))
					sb.WriteString(" slept\n")
				case 1:
					woke := q.WakeOne(Time(r.Intn(4)), s)
					fmt.Fprintf(&sb, " wakeone %v\n", woke)
				case 2:
					v, ok := q.WaitTimeout(p, Time(r.Intn(40)+1))
					fmt.Fprintf(&sb, " waittimeout %v %v\n", v, ok)
				case 3:
					n := q.WakeAll(0, nil)
					fmt.Fprintf(&sb, " wakeall %d\n", n)
					p.Sleep(Time(r.Intn(9)))
				case 4:
					v, ok := q2.WaitTimeout(p, Time(r.Intn(25)+1))
					fmt.Fprintf(&sb, " wt2 %v %v\n", v, ok)
				case 5:
					woke := q2.WakeOne(0, s)
					fmt.Fprintf(&sb, " wake2 %v\n", woke)
				case 6:
					v := q.Wait(p)
					fmt.Fprintf(&sb, " waited %v\n", v)
				}
			}
			fmt.Fprintf(&sb, "%d %s done\n", int64(p.Now()), p.Name())
		})
	}
	// Background wakers so plain Waits cannot block forever: WakeAll both
	// queues every 25 simulated units across a horizon far beyond the
	// workload's natural span.
	for tick := Time(25); tick < 40000; tick += 25 {
		e.At(tick, func() {
			q.WakeAll(0, nil)
			q2.WakeAll(0, nil)
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
	fmt.Fprintf(&sb, "final live=%d pending=%d\n", e.Live(), e.Pending())

	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:]), strings.Count(sb.String(), "\n")
}

// TestDispatchStressGolden pins the randomized stress trace to the digest
// captured from the pre-handoff engine, for every drive mode.
func TestDispatchStressGolden(t *testing.T) {
	for _, drive := range stressDriveModes {
		digest, lines := stressTrace(7, 6, 120, drive)
		if lines < 6*120 {
			t.Fatalf("drive=%s: trace suspiciously short (%d lines)", drive, lines)
		}
		if digest != goldenStressDigest {
			t.Errorf("drive=%s: stress trace diverged from pre-handoff engine:\n got %s\nwant %s",
				drive, digest, goldenStressDigest)
		}
	}
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
		ref, _ := stressTrace(seed, 5, 80, "run")
		again, _ := stressTrace(seed, 5, 80, "run")
		if again != ref {
			t.Fatalf("seed %d: run drive is not deterministic", seed)
		}
		for _, drive := range stressDriveModes[1:] {
			if got, _ := stressTrace(seed, 5, 80, drive); got != ref {
				t.Errorf("seed %d: drive=%s diverged from run drive", seed, drive)
			}
		}
	}
}

// TestRunReturnsOnDeadlock: when every live proc is parked with no event
// that can wake it, Run must return (rather than hang) with Live() > 0 so
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
	if e.Live() != n {
		t.Fatalf("Live() = %d after deadlocked Run, want %d", e.Live(), n)
	}
	if e.Pending() != 0 || e.PendingLive() != 0 {
		t.Fatalf("deadlocked Run left Pending=%d PendingLive=%d, want 0/0", e.Pending(), e.PendingLive())
	}
	if finished != 0 {
		t.Fatalf("finished = %d, want 0 (all procs parked)", finished)
	}
	// The deadlock is recoverable: wake everybody and drain.
	q.WakeAll(0, nil)
	e.Run()
	if e.Live() != 0 || finished != n {
		t.Fatalf("after WakeAll: Live=%d finished=%d, want 0/%d", e.Live(), finished, n)
	}
}
