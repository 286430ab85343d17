package codoms

// APLCacheSize is the per-hardware-thread APL cache capacity; its 32
// entries yield the 5-bit hardware domain tag of §4.3.
const APLCacheSize = 32

// aplIndexSize is the open-addressed tag index over the entries: a
// power of two at 4x the entry count, so probe chains stay short and a
// lookup is O(1) instead of a 32-entry scan. Index slots hold entry
// slot+1 (0 = empty).
const aplIndexSize = 128

// APLCacheEntry caches the access information of one recently executed
// domain plus the small hardware tag used internally for checks.
type APLCacheEntry struct {
	Tag   Tag
	HWTag uint8 // 5-bit hardware domain tag
	valid bool
}

// APLCache is the software-managed, per-hardware-thread cache of
// recently executed domains (§4.1). dIPC's extension (§4.3) adds a
// privileged instruction to retrieve the hardware tag of a cached
// domain, which the process-tracking fast path uses as an array index.
// The zero value is an empty cache.
type APLCache struct {
	entries [APLCacheSize]APLCacheEntry
	index   [aplIndexSize]uint8 // open-addressed tag -> slot+1 map
	used    int                 // valid entries
	clock   int                 // round-robin victim pointer
	misses  uint64
	lookups uint64
}

// probe is the internal tag search shared by Lookup and Insert.
// It never touches the client-visible counters, so Insert's own
// presence check cannot distort the lookup statistics.
//
//dipcvet:noalloc
func (c *APLCache) probe(tag Tag) (uint8, bool) {
	i := int(tag) & (aplIndexSize - 1)
	for {
		v := c.index[i]
		if v == 0 {
			return 0, false
		}
		if e := &c.entries[v-1]; e.valid && e.Tag == tag {
			return e.HWTag, true
		}
		i = (i + 1) & (aplIndexSize - 1)
	}
}

// indexAdd records tag -> slot in the first free index position on the
// tag's probe chain.
//
//dipcvet:noalloc
func (c *APLCache) indexAdd(tag Tag, slot uint8) {
	i := int(tag) & (aplIndexSize - 1)
	for c.index[i] != 0 {
		i = (i + 1) & (aplIndexSize - 1)
	}
	c.index[i] = slot + 1
}

// reindex rebuilds the tag index from the entries. Called after an
// eviction (the cold refill path, which already costs a full software
// miss) so stale index chains never accumulate.
func (c *APLCache) reindex() {
	c.index = [aplIndexSize]uint8{}
	for s := range c.entries {
		if c.entries[s].valid {
			c.indexAdd(c.entries[s].Tag, uint8(s))
		}
	}
}

// Lookup returns the hardware tag for a domain if cached. It is the
// dIPC-specific privileged instruction (§4.3) that retrieves the 5-bit
// hardware domain tag of a cached domain; on a miss the caller takes the
// slow path and refills.
//
//dipcvet:noalloc
func (c *APLCache) Lookup(tag Tag) (uint8, bool) {
	c.lookups++
	return c.probe(tag)
}

// Insert caches a domain, evicting round-robin if full, and returns its
// hardware tag. In hardware this is the software miss handler's refill.
// Its internal presence probe is not a client lookup and is never
// counted (or, as previously, fudged back) into the lookup statistics.
//
//dipcvet:noalloc
func (c *APLCache) Insert(tag Tag) uint8 {
	if hw, ok := c.probe(tag); ok {
		return hw
	}
	c.misses++
	if c.used < APLCacheSize {
		// Find an invalid slot first.
		for i := range c.entries {
			if !c.entries[i].valid {
				c.entries[i] = APLCacheEntry{Tag: tag, HWTag: uint8(i), valid: true}
				c.used++
				c.indexAdd(tag, uint8(i))
				return uint8(i)
			}
		}
	}
	v := c.clock
	c.clock = (c.clock + 1) % APLCacheSize
	c.entries[v] = APLCacheEntry{Tag: tag, HWTag: uint8(v), valid: true}
	c.reindex()
	return uint8(v)
}

// HitRate returns the fraction of client lookups served from the cache
// (1 when no lookup has happened yet — an empty history has no misses).
func (c *APLCache) HitRate() float64 {
	if c.lookups == 0 {
		return 1
	}
	hits := c.lookups - c.misses
	if c.misses > c.lookups {
		hits = 0
	}
	return float64(hits) / float64(c.lookups)
}
