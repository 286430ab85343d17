package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// ringPart is one partition of the cluster test model: a token-relay part
// owned by exactly one shard, obeying the Cluster ownership discipline —
// its own Rand stream seeded from part identity, all cross-part traffic
// on its outgoing Link, a pending buffer for tokens that arrive while its
// proc is mid-Sleep.
type ringPart struct {
	idx     int
	rng     *Rand
	out     *Link
	w       Waiter
	pending []uint64
	trace   []uint64
}

func (pt *ringPart) recv(v uint64) {
	if pt.w.Valid() {
		pt.w.WakeU64(0, v)
		return
	}
	pt.pending = append(pt.pending, v)
}

const ringLookahead = Time(100)

// ringTrace runs `parts` token-relay parts placed round-robin on `shards`
// shards until simulated time `until`, then digests the per-part traces
// merged in part order. Per the determinism contract, the digest must be
// identical for every shard count.
func ringTrace(seed uint64, parts, shards int, until Time) string {
	c := NewCluster(seed, shards)
	ps := make([]*ringPart, parts)
	for i := range ps {
		ps[i] = &ringPart{idx: i, rng: NewRand(uint64(i)*0x9e3779b9 + 17)}
	}
	// Links in part order — a fixed order independent of the shard count.
	for i := range ps {
		from := c.Shard(i % shards)
		to := c.Shard(((i + 1) % parts) % shards)
		ps[i].out = c.Connect(from, to, ringLookahead)
	}
	for i := range ps {
		dst := ps[(i+1)%parts]
		ps[i].out.SetHandler(dst.recv)
	}
	for i := range ps {
		pt := ps[i]
		eng := c.Shard(i % shards).Engine()
		eng.Spawn(fmt.Sprintf("part%d", i), Time(i), func(p *Proc) {
			pt.out.SendU64(ringLookahead, uint64(pt.idx)<<32) // seed one token
			for {
				var v uint64
				if len(pt.pending) > 0 {
					v, pt.pending = pt.pending[0], pt.pending[1:]
				} else {
					pt.w = p.PrepareWait()
					vv, ok := p.WaitU64()
					if !ok {
						return
					}
					v = vv
				}
				pt.trace = append(pt.trace, uint64(p.eng.now), v)
				p.Sleep(Time(pt.rng.Intn(60)))
				pt.out.SendU64(ringLookahead+Time(pt.rng.Intn(40)), v+1)
			}
		})
	}
	c.Shard(0).Engine().RunUntil(until)

	var sb strings.Builder
	for _, pt := range ps {
		fmt.Fprintf(&sb, "part %d now %d:", pt.idx, int64(c.Shard(pt.idx%shards).Engine().Now()))
		for _, v := range pt.trace {
			fmt.Fprintf(&sb, " %d", v)
		}
		sb.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// TestClusterShardCountInvariance is the heart of the sharding contract:
// the same model produces byte-identical traces at every shard count,
// including counts that do not divide the part count and counts exceeding
// the part count.
func TestClusterShardCountInvariance(t *testing.T) {
	const parts = 6
	until := Time(40000)
	if testing.Short() {
		until = 15000
	}
	ref := ringTrace(42, parts, 1, until)
	if again := ringTrace(42, parts, 1, until); again != ref {
		t.Fatalf("1-shard run not deterministic")
	}
	for _, shards := range []int{2, 3, 4, 5, parts, parts + 2} {
		if got := ringTrace(42, parts, shards, until); got != ref {
			t.Errorf("shards=%d diverged from the sequential reference\n got %s\nwant %s", shards, got, ref)
		}
	}
}

// TestClusterStressRandomized widens the invariance check across seeds
// and sizes; it doubles as the cluster entry in the -race CI coverage.
func TestClusterStressRandomized(t *testing.T) {
	seeds := []uint64{3, 9, 1234}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, parts := range []int{5, 12} {
			ref := ringTrace(seed, parts, 1, 12000)
			for _, shards := range []int{2, 4} {
				if got := ringTrace(seed, parts, shards, 12000); got != ref {
					t.Errorf("seed=%d parts=%d shards=%d diverged", seed, parts, shards)
				}
			}
		}
	}
}

// TestClusterLinkFloodInOrder floods one cross-shard link with hundreds
// of messages sent at one instant and checks nothing is lost or
// reordered.
func TestClusterLinkFloodInOrder(t *testing.T) {
	const n = 809
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(0), c.Shard(1), 10)
	var got []uint64
	l.SetHandler(func(v uint64) { got = append(got, v) })
	c.Shard(0).Engine().At(0, func() {
		for k := 0; k < n; k++ {
			l.SendU64(Time(10+k), uint64(k))
		}
	})
	c.Run()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for k, v := range got {
		if v != uint64(k) {
			t.Fatalf("message %d out of order: got %d", k, v)
		}
	}
}

// TestConnectRejectsZeroLookahead: a cross-shard link with no lookahead
// would couple its shards in lockstep — Connect must refuse it (the fix
// is co-locating the parts on one shard, where zero is fine).
func TestConnectRejectsZeroLookahead(t *testing.T) {
	c := NewCluster(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("Connect with zero cross-shard lookahead did not panic")
		}
	}()
	c.Connect(c.Shard(0), c.Shard(1), 0)
}

// TestConnectIntraShardZeroLookaheadOK: a link within one shard may
// declare zero lookahead and deliver a zero-delay send.
func TestConnectIntraShardZeroLookaheadOK(t *testing.T) {
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(1), c.Shard(1), 0)
	var got []uint64
	l.SetHandler(func(v uint64) { got = append(got, v) })
	c.Shard(1).Engine().At(0, func() { l.SendU64(0, 7) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("delivered %v, want [7]", got)
	}
}

// TestSendBelowLookaheadPanics: the declared lookahead is a promise
// about every message on the link; a send that undercuts it must fail
// loudly at the send site.
func TestSendBelowLookaheadPanics(t *testing.T) {
	c := NewCluster(1, 2)
	l := c.Connect(c.Shard(0), c.Shard(1), 100)
	l.SetHandler(func(uint64) {})
	c.Shard(0).Engine().At(0, func() { l.SendU64(50, 1) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("send below lookahead did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "below declared lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run()
}

// TestClusterPanicPropagation: a proc panicking on any shard must
// surface from Cluster.Run with the engine's normal containment
// wrapping.
func TestClusterPanicPropagation(t *testing.T) {
	c := NewCluster(1, 3)
	// Keep every shard busy so the panic lands amid cross-shard traffic.
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
		if !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run()
}

// TestClusterRunUntilClampsClocks: every shard reads the cluster's one
// engine clock, so after RunUntil on it every shard clock lands exactly
// on t even when its last event was earlier.
func TestClusterRunUntilClampsClocks(t *testing.T) {
	c := NewCluster(1, 3)
	c.Shard(0).Engine().At(5, func() {})
	c.Shard(2).Engine().RunUntil(1000)
	for i := 0; i < 3; i++ {
		if now := c.Shard(i).Engine().Now(); now != 1000 {
			t.Fatalf("shard %d clock = %v after RunUntil(1000)", i, now)
		}
	}
}

// TestClusterIntraShardDispatchNoAlloc pins the acceptance criterion that
// link dispatch — SendU64 into the engine's heap and handler dispatch —
// allocates nothing in steady state, on one shard and with two shards
// sending to each other at every instant.
func TestClusterIntraShardDispatchNoAlloc(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		c := NewCluster(1, 1)
		s := c.Shard(0)
		l := c.Connect(s, s, 0)
		count := 0
		l.SetHandler(func(v uint64) {
			count++
			l.SendU64(1, v+1)
		})
		s.Engine().At(0, func() { l.SendU64(1, 0) })
		checkDispatchNoAlloc(t, c, &count)
	})
	t.Run("shards=2", func(t *testing.T) {
		c := NewCluster(1, 2)
		a, b := c.Shard(0), c.Shard(1)
		ab := c.Connect(a, b, 1)
		ba := c.Connect(b, a, 1)
		count := 0
		ab.SetHandler(func(v uint64) {
			count++
			ba.SendU64(1, v+1)
		})
		ba.SetHandler(func(v uint64) {
			count++
			ab.SendU64(1, v+1)
		})
		a.Engine().At(0, func() { ab.SendU64(1, 0) })
		b.Engine().At(0, func() { ba.SendU64(1, 0) })
		checkDispatchNoAlloc(t, c, &count)
	})
}

// checkDispatchNoAlloc warms c's heap, then requires zero allocations per
// 500-instant RunUntil window and that the handlers kept running.
func checkDispatchNoAlloc(t *testing.T, c *Cluster, count *int) {
	t.Helper()
	eng := c.Shard(0).Engine()
	eng.RunUntil(5000) // warm the heap
	allocs := testing.AllocsPerRun(50, func() {
		eng.RunUntil(eng.Now() + 500)
	})
	if allocs != 0 {
		t.Errorf("link dispatch allocated %.1f times per 500-instant window, want 0", allocs)
	}
	if *count < 5000 {
		t.Fatalf("handlers ran %d times, expected thousands", *count)
	}
}

// BenchmarkClusterRing measures the token ring end to end at several
// shard counts for profiling; it is not a pinned regression gate.
func BenchmarkClusterRing(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ringTrace(7, 8, shards, 20000)
			}
		})
	}
}
