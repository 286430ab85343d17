package faults

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Injector binds a Plan to a concrete simulation: wiring code registers
// named targets (processes, link states) together with the
// engine that owns each one, and Install schedules every plan event as
// an ordinary callback on that owning engine. Events therefore fire in
// simulated-time order interleaved with the model's own events — fault
// injection inherits the engine's determinism instead of fighting it.
type Injector struct {
	plan      *Plan
	procs     map[string]procTarget
	links     map[string]linkTarget
	installed bool
}

type procTarget struct {
	m *kernel.Machine
	p *kernel.Process
}

type linkTarget struct {
	eng *sim.Engine
	ls  *LinkState
}

// NewInjector returns an injector for the plan (nil plan: empty plan).
func NewInjector(plan *Plan) *Injector {
	return &Injector{
		plan:  plan,
		procs: make(map[string]procTarget),
		links: make(map[string]linkTarget),
	}
}

// Proc registers a kill/restart target. Events for this target fire on
// the machine's engine.
func (in *Injector) Proc(name string, m *kernel.Machine, p *kernel.Process) {
	in.procs[name] = procTarget{m: m, p: p}
}

// Link registers a link-failure target: the LinkState ls owned by the
// given engine (the sending side).
func (in *Injector) Link(name string, eng *sim.Engine, ls *LinkState) {
	in.links[name] = linkTarget{eng: eng, ls: ls}
}

// Install schedules every plan event on its target's engine. It must
// run after wiring and before the simulation starts (an event in the
// owning engine's past is an error, as is an unregistered target — a
// chaos plan that silently misses its target would report rosy
// availability). Installing an empty plan is a no-op: no events are
// pushed, no engine state is touched.
func (in *Injector) Install() error {
	if in.installed {
		return fmt.Errorf("faults: plan installed twice")
	}
	in.installed = true
	if in.plan == nil {
		return nil
	}
	for i, ev := range in.plan.Events {
		ev := ev
		eng, fire, err := in.resolve(ev)
		if err != nil {
			return fmt.Errorf("faults: event %d (%s %q at %v): %w", i, ev.Kind, ev.Target, ev.At, err)
		}
		if ev.At < eng.Now() {
			return fmt.Errorf("faults: event %d (%s %q) at %v is in the owning engine's past (now %v)",
				i, ev.Kind, ev.Target, ev.At, eng.Now())
		}
		eng.At(ev.At-eng.Now(), fire)
	}
	return nil
}

// resolve maps an event to its owning engine and firing closure.
func (in *Injector) resolve(ev Event) (*sim.Engine, func(), error) {
	switch ev.Kind {
	case KillProc, RestartProc:
		t, ok := in.procs[ev.Target]
		if !ok {
			return nil, nil, fmt.Errorf("no process registered under this name")
		}
		if ev.Kind == KillProc {
			return t.m.Eng, func() { t.m.Kill(t.p) }, nil
		}
		return t.m.Eng, func() { t.m.Restart(t.p) }, nil
	case LinkDown, LinkUp, LinkDegrade, LinkRestore:
		t, ok := in.links[ev.Target]
		if !ok {
			return nil, nil, fmt.Errorf("no link registered under this name")
		}
		eng, ls := t.eng, t.ls
		switch ev.Kind {
		case LinkDown:
			return eng, func() { ls.SetDown(true, eng.Now()) }, nil
		case LinkUp:
			return eng, func() { ls.SetDown(false, eng.Now()) }, nil
		case LinkDegrade:
			extra := ev.Extra
			return eng, func() { ls.SetExtra(extra) }, nil
		default: // LinkRestore
			return eng, func() { ls.SetExtra(0) }, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown fault kind %d", ev.Kind)
}
