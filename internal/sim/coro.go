//go:build go1.23

package sim

import "iter"

// coro is one iter.Pull coroutine used as a symmetric switch point. The
// runtime keeps exactly one goroutine blocked in a coroutine, and any
// goroutine may switch into it: the switch resumes the blocked goroutine
// and blocks the caller there instead. iter.Pull spells that switch as
// next or yield and requires the two to alternate, whoever calls them;
// the owning Proc's nextDue tracks whose turn it is, so swap can use
// either. (The flag sits in Proc beside finished and the int32 queued
// count, in padding the struct has anyway, so it costs no bytes.) A
// switch costs one runtime.coroswitch, not a trip through the
// scheduler. The root's switches go through swap; Proc.park, where
// every handoff between procs happens, makes the same next-or-yield
// switch inline so that a resumed proc unwinds through no swap frame.
//
// iter.Pull needs the Go 1.23 standard library while the module's
// language version stays at go1.21 (a newer go.mod line would break the
// nested perfbench module's build), so this file carries the build
// constraint that raises its own language version.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool // set by the body when it first runs
	stop  func()              // retires the coroutine before its body runs
}

// startCoro creates p's coroutine with body, which has not yet run: p's
// goroutine starts out blocked in it. body must store its yield argument
// in p.co.yield before anything else.
func (p *Proc) startCoro(body func(yield func(struct{}) bool)) {
	p.co.next, p.co.stop = iter.Pull(body)
	p.nextDue = true
	p.at = p
}

// swap resumes the goroutine blocked in p's coroutine and blocks the
// caller there until another swap on it resumes the caller (true), or
// until p's body returns and the runtime resumes the goroutine blocked
// in its coroutine (false).
//
//dipcvet:noalloc
func (p *Proc) swap() bool {
	if p.nextDue {
		p.nextDue = false
		_, ok := p.co.next()
		return ok
	}
	p.nextDue = true
	return p.co.yield(struct{}{})
}
