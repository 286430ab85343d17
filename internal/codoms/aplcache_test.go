package codoms

import (
	"math/rand"
	"testing"
)

// refAPLCache is the previous linear-scan implementation (including its
// round-robin eviction and slot-reuse order), kept as the behavioural
// reference for the indexed cache. Counters follow the fixed semantics:
// Insert's internal probe is not a client lookup in either direction —
// the old code decremented on a present tag but leaked the increment on
// the miss path, which is the stat-fudge this PR removes.
type refAPLCache struct {
	entries [APLCacheSize]APLCacheEntry
	clock   int
	misses  uint64
	lookups uint64
}

func (c *refAPLCache) probe(tag Tag) (uint8, bool) {
	for i := range c.entries {
		if c.entries[i].valid && c.entries[i].Tag == tag {
			return c.entries[i].HWTag, true
		}
	}
	return 0, false
}

func (c *refAPLCache) Lookup(tag Tag) (uint8, bool) {
	c.lookups++
	return c.probe(tag)
}

func (c *refAPLCache) Insert(tag Tag) uint8 {
	if hw, ok := c.probe(tag); ok {
		return hw
	}
	c.misses++
	for i := range c.entries {
		if !c.entries[i].valid {
			c.entries[i] = APLCacheEntry{Tag: tag, HWTag: uint8(i), valid: true}
			return uint8(i)
		}
	}
	v := c.clock
	c.clock = (c.clock + 1) % APLCacheSize
	c.entries[v] = APLCacheEntry{Tag: tag, HWTag: uint8(v), valid: true}
	return uint8(v)
}

// TestAPLCacheMatchesScanReference drives the indexed cache and the
// linear-scan reference through the same random trace: every hardware
// tag handed out, every hit/miss result and both counters must agree at
// every step.
func TestAPLCacheMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xA91C4C4E))
	got := &APLCache{}
	want := &refAPLCache{}
	for step := 0; step < 50000; step++ {
		tag := Tag(rng.Intn(3*APLCacheSize) + 1)
		switch op := rng.Intn(100); {
		case op < 45:
			ghw, gok := got.Lookup(tag)
			whw, wok := want.Lookup(tag)
			if gok != wok || ghw != whw {
				t.Fatalf("step %d: Lookup(%d) = (%d,%v), reference (%d,%v)", step, tag, ghw, gok, whw, wok)
			}
		default:
			ghw := got.Insert(tag)
			whw := want.Insert(tag)
			if ghw != whw {
				t.Fatalf("step %d: Insert(%d) = %d, reference %d", step, tag, ghw, whw)
			}
		}
		if got.lookups != want.lookups || got.misses != want.misses {
			t.Fatalf("step %d: stats (%d,%d), reference (%d,%d)", step, got.lookups, got.misses, want.lookups, want.misses)
		}
	}
}

// TestAPLCacheInsertDoesNotCountLookups pins the satellite fix: Insert's
// internal presence probe must leave the client lookup counter alone —
// in particular it must never decrement it.
func TestAPLCacheInsertDoesNotCountLookups(t *testing.T) {
	c := &APLCache{}
	c.Insert(Tag(1)) // miss + refill
	c.Insert(Tag(1)) // already cached
	if c.lookups != 0 || c.misses != 1 {
		t.Fatalf("stats after two inserts = (%d,%d), want (0,1)", c.lookups, c.misses)
	}
	c.Lookup(Tag(1))
	c.Lookup(Tag(2))
	c.Insert(Tag(2))
	if c.lookups != 2 || c.misses != 2 {
		t.Fatalf("stats = (%d,%d), want (2,2)", c.lookups, c.misses)
	}
}

// TestAPLCacheHitRate checks the accessor over a known trace.
func TestAPLCacheHitRate(t *testing.T) {
	c := &APLCache{}
	if hr := c.HitRate(); hr != 1 {
		t.Fatalf("empty-history hit rate = %v, want 1", hr)
	}
	c.Lookup(Tag(7)) // miss
	c.Insert(Tag(7)) // refill (the miss)
	for i := 0; i < 3; i++ {
		if _, ok := c.Lookup(Tag(7)); !ok {
			t.Fatal("resident tag missed")
		}
	}
	// 4 lookups, 1 refill -> 75% hit rate.
	if hr := c.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", hr)
	}
}

// TestAPLCacheEvictionReindex exercises the post-eviction index rebuild:
// after the clock wraps several times, lookups must still resolve every
// resident tag and nothing else.
func TestAPLCacheEvictionReindex(t *testing.T) {
	c := &APLCache{}
	last := make(map[Tag]uint8)
	for i := 1; i <= 5*APLCacheSize; i++ {
		tag := Tag(i)
		hw := c.Insert(tag)
		last[tag] = hw
		// The most recent APLCacheSize tags must all be resident.
		lo := i - APLCacheSize + 1
		if lo < 1 {
			lo = 1
		}
		for j := lo; j <= i; j++ {
			got, ok := c.Lookup(Tag(j))
			if !ok || got != last[Tag(j)] {
				t.Fatalf("after insert %d: tag %d -> (%d,%v), want (%d,true)", i, j, got, ok, last[Tag(j)])
			}
		}
		if i > APLCacheSize {
			if _, ok := c.Lookup(Tag(lo - 1)); ok {
				t.Fatalf("after insert %d: evicted tag %d still resident", i, lo-1)
			}
		}
	}
}
