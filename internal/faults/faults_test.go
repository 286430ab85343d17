package faults

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// drawSeq collects n verdicts from a fresh site of the plan.
func drawSeq(p *Plan, name string, n int) []Verdict {
	s := p.Site(name, sim.Micros(100))
	out := make([]Verdict, n)
	for i := range out {
		out[i], _ = s.Draw()
	}
	return out
}

// TestSiteStreamsDeterministicAndDecorrelated: the same (seed, name)
// reproduces the same verdict sequence; a different name diverges.
func TestSiteStreamsDeterministicAndDecorrelated(t *testing.T) {
	p := &Plan{Seed: 7, DropProb: 0.2, SlowProb: 0.2, SlowBy: sim.Micros(5)}
	a1 := drawSeq(p, "hop1", 200)
	a2 := drawSeq(p, "hop1", 200)
	b := drawSeq(p, "hop2", 200)
	sameAsA, sameAsB := true, true
	seen := map[Verdict]bool{}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("draw %d: same site name produced %v then %v", i, a1[i], a2[i])
		}
		if a1[i] != b[i] {
			sameAsB = false
		}
		seen[a1[i]] = true
	}
	if !sameAsA {
		t.Fatal("unreachable")
	}
	if sameAsB {
		t.Error("streams for different site names are identical")
	}
	for _, v := range []Verdict{VerdictOK, VerdictDrop, VerdictSlow} {
		if !seen[v] {
			t.Errorf("200 draws at 20/20%% never produced verdict %v", v)
		}
	}
}

// TestNilSiteIsTransparent: a plan without per-call probabilities
// yields a nil site, and the nil site always answers OK.
func TestNilSiteIsTransparent(t *testing.T) {
	var empty *Plan
	if s := empty.Site("x", 0); s != nil {
		t.Fatalf("empty plan produced a live call site")
	}
	if s := (&Plan{Events: []Event{{At: 5, Kind: KillProc, Target: "p"}}}).Site("x", 0); s != nil {
		t.Fatalf("plan with only scheduled events produced a live call site")
	}
	var s *CallSite
	v, d := s.Draw()
	if v != VerdictOK || d != 0 {
		t.Fatalf("nil site drew (%v, %v), want (OK, 0)", v, d)
	}
}

// TestBackoffCappedExponential pins the retry schedule.
func TestBackoffCappedExponential(t *testing.T) {
	rp := RetryPolicy{Deadline: sim.Micros(100), MaxRetries: 5,
		Backoff: sim.Micros(10), MaxBackoff: sim.Micros(35)}
	want := []sim.Time{sim.Micros(10), sim.Micros(20), sim.Micros(35), sim.Micros(35)}
	for i, w := range want {
		if got := rp.BackoffFor(i); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", i, got, w)
		}
	}
	if rp.Attempts() != 6 {
		t.Errorf("Attempts() = %d, want 6", rp.Attempts())
	}
	uncapped := RetryPolicy{Backoff: sim.Micros(3)}
	if got := uncapped.BackoffFor(2); got != sim.Micros(12) {
		t.Errorf("uncapped BackoffFor(2) = %v, want 12us", got)
	}
}

// TestBackoffJitterOffIsExact: with Jitter at its zero default (or a
// nil stream) the jittered schedule is the exact exponential one — the
// opt-in knob cannot perturb a pinned digest it was not asked to.
func TestBackoffJitterOffIsExact(t *testing.T) {
	rp := RetryPolicy{Backoff: sim.Micros(10), MaxBackoff: sim.Micros(80)}
	rng := sim.NewRand(42)
	for i := 0; i < 4; i++ {
		if got := rp.BackoffJittered(i, rng); got != rp.BackoffFor(i) {
			t.Errorf("Jitter=0: BackoffJittered(%d) = %v, want %v", i, got, rp.BackoffFor(i))
		}
	}
	rp.Jitter = 0.5
	for i := 0; i < 4; i++ {
		if got := rp.BackoffJittered(i, nil); got != rp.BackoffFor(i) {
			t.Errorf("nil stream: BackoffJittered(%d) = %v, want %v", i, got, rp.BackoffFor(i))
		}
	}
}

// TestBackoffJitterRangeAndDeterminism: jitter only ever shortens the
// backoff, by at most the jitter fraction, and the same stream replays
// the same schedule.
func TestBackoffJitterRangeAndDeterminism(t *testing.T) {
	rp := RetryPolicy{Backoff: sim.Micros(10), MaxBackoff: sim.Micros(80), Jitter: 0.5}
	p := &Plan{Seed: 9}
	a, b := p.JitterStream("hop1"), p.JitterStream("hop1")
	varied := false
	for i := 0; i < 64; i++ {
		retry := i % 4
		full := rp.BackoffFor(retry)
		got := rp.BackoffJittered(retry, a)
		if got > full || got < full-sim.Time(0.5*float64(full)) {
			t.Fatalf("draw %d: jittered backoff %v outside (%v, %v]", i, got, full/2, full)
		}
		if got2 := rp.BackoffJittered(retry, b); got2 != got {
			t.Fatalf("draw %d: same stream name diverged: %v vs %v", i, got, got2)
		}
		if got != full {
			varied = true
		}
	}
	if !varied {
		t.Error("64 jittered draws never moved off the exact schedule")
	}
	if s := (*Plan)(nil).JitterStream("hop1"); s != nil {
		t.Error("nil plan produced a live jitter stream")
	}
	c, d := p.JitterStream("hop2"), p.JitterStream("hop1")
	same := true
	for i := 0; i < 8; i++ {
		if rp.BackoffJittered(3, c) != rp.BackoffJittered(3, d) {
			same = false
		}
	}
	if same {
		t.Error("different callsite names produced identical jitter draws")
	}
}

// TestInjectorKillRestartFiresOnSimClock: plan events fire as ordinary
// engine events at their scheduled instants.
func TestInjectorKillRestartFiresOnSimClock(t *testing.T) {
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	db := m.NewProcess("db")

	plan := &Plan{Events: []Event{
		{At: sim.Micros(100), Kind: KillProc, Target: "db"},
		{At: sim.Micros(200), Kind: RestartProc, Target: "db"},
	}}
	in := NewInjector(plan)
	in.Proc("db", m, db)
	if err := in.Install(); err != nil {
		t.Fatal(err)
	}

	var atKill, atRestart bool
	eng.At(sim.Micros(150), func() { atKill = db.Dead })
	eng.At(sim.Micros(250), func() { atRestart = !db.Dead })
	eng.RunUntil(sim.Micros(300))
	if !atKill {
		t.Error("process not dead between kill and restart events")
	}
	if !atRestart {
		t.Error("process still dead after the restart event")
	}
}

// TestInjectorRejectsUnknownTargetAndPastEvents: silent misses would
// fake availability, so Install must fail loudly.
func TestInjectorRejectsUnknownTargetAndPastEvents(t *testing.T) {
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 1)

	in := NewInjector(&Plan{Events: []Event{{At: 10, Kind: KillProc, Target: "ghost"}}})
	if err := in.Install(); err == nil {
		t.Error("Install resolved an unregistered target")
	}

	db := m.NewProcess("db")
	eng.At(50, func() {})
	eng.RunUntil(50)
	in2 := NewInjector(&Plan{Events: []Event{{At: 10, Kind: KillProc, Target: "db"}}})
	in2.Proc("db", m, db)
	if err := in2.Install(); err == nil {
		t.Error("Install scheduled an event in the engine's past")
	}
}

// TestInjectorRejectsUnknownKind: a plan event whose Kind is not one of
// the declared kinds (the zero value, or past the last) is a plan bug,
// and Install must name the offending event.
func TestInjectorRejectsUnknownKind(t *testing.T) {
	eng := sim.NewEngine(3)
	m := kernel.NewMachine(eng, cost.Default(), 1)
	db := m.NewProcess("db")
	for _, k := range []Kind{0, LinkRestore + 1} {
		in := NewInjector(&Plan{Events: []Event{
			{At: 5, Kind: KillProc, Target: "db"},
			{At: 10, Kind: k, Target: "db"},
		}})
		in.Proc("db", m, db)
		err := in.Install()
		if err == nil {
			t.Fatalf("Install accepted kind %d", k)
		}
		for _, want := range []string{"event 1 ", fmt.Sprintf("unknown fault kind %d", k)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("kind %d: error %q does not contain %q", k, err, want)
			}
		}
	}
}

// TestLinkWindowsAndFlap: loss windows accumulate downtime and the Flap
// helper emits alternating down/up pairs that drive them.
func TestLinkWindowsAndFlap(t *testing.T) {
	eng := sim.NewEngine(3)
	ls := &LinkState{}

	evs := Flap("wire", sim.Micros(10), sim.Micros(50), sim.Micros(20), sim.Micros(5))
	if len(evs) != 4 {
		t.Fatalf("Flap emitted %d events, want 4 (2 windows)", len(evs))
	}
	in := NewInjector(&Plan{Events: append(evs,
		Event{At: sim.Micros(40), Kind: LinkDegrade, Target: "wire", Extra: sim.Micros(2)},
		Event{At: sim.Micros(45), Kind: LinkRestore, Target: "wire"},
	)})
	in.Link("wire", eng, ls)
	if err := in.Install(); err != nil {
		t.Fatal(err)
	}

	type sample struct {
		at    sim.Time
		up    bool
		extra sim.Time
	}
	var got []sample
	for _, at := range []sim.Time{sim.Micros(12), sim.Micros(18), sim.Micros(41), sim.Micros(46)} {
		at := at
		eng.At(at, func() { got = append(got, sample{at, ls.Up(), ls.ExtraDelay()}) })
	}
	eng.RunUntil(sim.Micros(60))

	want := []sample{
		{sim.Micros(12), false, 0},            // inside window 1
		{sim.Micros(18), true, 0},             // between windows
		{sim.Micros(41), true, sim.Micros(2)}, // degraded
		{sim.Micros(46), true, 0},             // restored
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if dt := ls.Downtime(eng.Now()); dt != sim.Micros(10) {
		t.Errorf("Downtime = %v, want 10us (two 5us windows)", dt)
	}
}

// TestPlanEmpty pins the empty-plan predicate the golden contract
// relies on.
func TestPlanEmpty(t *testing.T) {
	if !(&Plan{Seed: 99}).Empty() {
		t.Error("seed-only plan is not empty")
	}
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan is not empty")
	}
	if (&Plan{DropProb: 0.1}).Empty() {
		t.Error("plan with drop probability reads as empty")
	}
	if (&Plan{Events: []Event{{}}}).Empty() {
		t.Error("plan with events reads as empty")
	}
}
