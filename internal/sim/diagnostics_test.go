package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestRunNamesDeadlockedProcs: when the queue drains with procs still
// parked, Run must say who is stuck instead of returning silently.
func TestRunNamesDeadlockedProcs(t *testing.T) {
	e := NewEngine(1)
	for _, name := range []string{"stuck-a", "stuck-b"} {
		e.Spawn(name, 0, func(p *Proc) {
			p.PrepareWait()
			p.Wait() // nobody will ever wake this
		})
	}
	e.Spawn("finisher", 0, func(p *Proc) { p.Sleep(5) })
	err := e.Run()
	if err == nil {
		t.Fatalf("Run returned nil with %d procs parked", e.live)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %T, want *DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Fatalf("DeadlockError names %v, want the two stuck procs", dl.Blocked)
	}
	for _, want := range []string{"stuck-a", "stuck-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q does not name %q", err.Error(), want)
		}
	}
	if strings.Contains(err.Error(), "finisher") {
		t.Errorf("diagnostic %q names a proc that finished", err.Error())
	}
}

// TestRunNoDeadlockWhenAllFinish: a clean completion returns nil.
func TestRunNoDeadlockWhenAllFinish(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("worker", 0, func(p *Proc) { p.Sleep(10) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run of a completing sim returned %v", err)
	}
}

// TestClusterShardPanicStructured: a shard proc's panic escapes
// Cluster.Run as the engine's contained error, naming the proc, with the
// clock stopped at the instant it panicked.
func TestClusterShardPanicStructured(t *testing.T) {
	c := NewCluster(1, 3)
	for i := 0; i < 3; i++ {
		s := c.Shard(i)
		l := c.Connect(s, c.Shard((i+1)%3), 10)
		l.SetHandler(func(uint64) {})
		ll := l
		s.Engine().Spawn(fmt.Sprintf("busy%d", i), 0, func(p *Proc) {
			for k := 0; k < 100; k++ {
				p.Sleep(7)
				ll.SendU64(10, uint64(k))
			}
		})
	}
	c.Shard(1).Engine().Spawn("bomb", 333, func(p *Proc) {
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("cluster swallowed a shard panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("cluster panicked with %T (%v), want the engine's error", r, r)
		}
		for _, want := range []string{`"bomb"`, "boom"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not carry %s", err.Error(), want)
			}
		}
		if now := c.Shard(1).Engine().Now(); now != 333 {
			t.Errorf("clock = %v after the panic, want 333", now)
		}
	}()
	c.Run()
}

// TestClusterRunNamesBlockedProcs: when the cluster goes quiet with a proc
// still parked, Run's DeadlockError names it.
func TestClusterRunNamesBlockedProcs(t *testing.T) {
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(0), c.Shard(1), 10)
	l.SetHandler(func(uint64) {})
	c.Shard(0).Engine().Spawn("pinger", 0, func(p *Proc) {
		p.Sleep(5)
		l.SendU64(10, 1)
	})
	c.Shard(1).Engine().Spawn("waiter", 0, func(p *Proc) {
		p.PrepareWait()
		p.Wait() // never woken
	})
	err := c.Run()
	if err == nil {
		t.Fatalf("cluster Run returned nil with a proc parked")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("cluster Run returned %T, want *DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter" {
		t.Fatalf("deadlock named %v, want [waiter]", dl.Blocked)
	}
}
