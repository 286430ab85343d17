package codoms

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// Property: a capability covers exactly the ranges inside its bounds
// with permissions up to its own, and nothing outside, and only on the
// thread that minted it.
func TestCapabilityBoundsProperty(t *testing.T) {
	s := NewSystem()
	pt := mem.NewPageTable()
	owner := s.NewDomain()
	stranger := s.NewDomain()
	const pages = 16
	if err := pt.Map(0x100000, pages, mem.FlagExec, owner.Tag); err != nil {
		t.Fatal(err)
	}
	// A code page for the stranger to execute from.
	if err := pt.Map(0x900000, 1, mem.FlagExec, stranger.Tag); err != nil {
		t.Fatal(err)
	}
	ownerCtx := &ThreadCtx{}
	ownerCtx.SetIP(0x100000)
	other := &ThreadCtx{}
	other.SetIP(0x900000)

	f := func(offRaw, sizeRaw uint16, accOff uint16, accSize uint8, wantWrite bool) bool {
		base := mem.Addr(0x100000) + mem.Addr(offRaw)%(pages*mem.PageSize/2)
		size := int(sizeRaw)%(4*mem.PageSize) + 1
		if int(base)+size > 0x100000+pages*mem.PageSize {
			size = 0x100000 + pages*mem.PageSize - int(base)
		}
		perm := PermRead
		if wantWrite {
			perm = PermWrite
		}
		cap, err := s.NewFromAPL(ownerCtx, pt, owner.Tag, base, size, perm)
		if err != nil {
			return false
		}
		if !cap.ValidFor(ownerCtx) || cap.ValidFor(other) {
			return false // valid on the minting thread only
		}

		va := base + mem.Addr(accOff)
		n := int(accSize)%64 + 1
		inBounds := va >= base && int(va)+n <= int(base)+size
		readOK := cap.Covers(va, n, PermRead)
		writeOK := cap.Covers(va, n, PermWrite)
		if inBounds {
			// Read is always covered by read or write capabilities,
			// write only by a write capability.
			return readOK && writeOK == wantWrite
		}
		// va >= base, so out of bounds means past the end.
		return !readOK && !writeOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the APL cache never hands out the same hardware tag to two
// resident domains.
func TestAPLCacheUniqueHWTagsProperty(t *testing.T) {
	f := func(tagsRaw []uint16) bool {
		c := &APLCache{}
		for _, tr := range tagsRaw {
			c.Insert(Tag(tr%100 + 1))
		}
		seen := map[uint8]Tag{}
		for tag := Tag(1); tag <= 100; tag++ {
			if hw, ok := c.Lookup(tag); ok {
				if other, dup := seen[hw]; dup && other != tag {
					return false
				}
				seen[hw] = tag
			}
		}
		return len(seen) <= APLCacheSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: grants are directional — granting src->dst never lets dst
// access src.
func TestGrantDirectionalityProperty(t *testing.T) {
	f := func(permRaw uint8) bool {
		s := NewSystem()
		pt := mem.NewPageTable()
		a, b := s.NewDomain(), s.NewDomain()
		if err := pt.Map(0, 1, mem.FlagExec, a.Tag); err != nil {
			return false
		}
		if err := pt.Map(mem.PageSize, 1, mem.FlagExec, b.Tag); err != nil {
			return false
		}
		perm := Perm(permRaw%3) + PermCall
		if err := s.Grant(a.Tag, b.Tag, perm); err != nil {
			return false
		}
		bctx := &ThreadCtx{}
		bctx.SetIP(mem.PageSize) // executing in B
		// B must not gain anything from A's grant.
		_, capErr := s.NewFromAPL(bctx, pt, a.Tag, 0, 8, PermRead)
		return s.APLPerm(b.Tag, a.Tag) == PermNil && capErr != nil &&
			s.CheckCall(bctx, pt, 0) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
