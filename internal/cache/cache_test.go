package cache

import (
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 4096, Ways: 4, LineBytes: 64}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 4096, Ways: 0, LineBytes: 64},
		{SizeBytes: 4096, Ways: 4, LineBytes: 48},       // not power of two
		{SizeBytes: 4096 + 64, Ways: 4, LineBytes: 64},  // lines % ways != 0
		{SizeBytes: 3 * 64 * 4, Ways: 4, LineBytes: 64}, // 3 sets: not pow2
		{SizeBytes: 4096, Ways: 4, LineBytes: 64, Policy: LRU + 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(small())
	hit, _ := c.Access(0x1000, false, 0)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _ = c.Access(0x1000, false, 0)
	if !hit {
		t.Fatal("second access missed")
	}
	if !c.Lookup(0x1000) {
		t.Fatal("Lookup false after fill")
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(small())
	c.Access(0x1000, false, 0)
	if hit, _ := c.Access(0x1020, false, 0); !hit {
		t.Fatal("offset within same line missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 16 sets, 4 ways
	sets := uint64(c.Sets())
	// Fill one set with 4 distinct tags, touch the first again, then
	// insert a 5th: the victim must be the 2nd (LRU), not the 1st.
	base := mem.Addr(0)
	stride := mem.Addr(sets * 64)
	for i := 0; i < 4; i++ {
		c.Access(base+mem.Addr(i)*stride, false, 0)
	}
	c.Access(base, false, 0)          // refresh tag 0
	c.Access(base+4*stride, false, 0) // evicts tag 1
	if hit, _ := c.Access(base, false, 0); !hit {
		t.Fatal("MRU line was evicted")
	}
	if hit, _ := c.Access(base+1*stride, false, 0); hit {
		t.Fatal("LRU line survived")
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := New(small())
	sets := uint64(c.Sets())
	stride := mem.Addr(sets * 64)
	c.Access(0, true, 7) // dirty with meta 7
	for i := 1; i <= 4; i++ {
		_, ev := c.Access(mem.Addr(i)*stride, false, 0)
		if i < 4 {
			if ev != nil {
				t.Fatalf("unexpected eviction at fill %d", i)
			}
			continue
		}
		if ev == nil {
			t.Fatal("dirty eviction not reported")
		}
		if ev.Addr != 0 || !ev.Dirty || ev.Meta != 7 {
			t.Fatalf("eviction = %+v", ev)
		}
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := New(small())
	sets := uint64(c.Sets())
	stride := mem.Addr(sets * 64)
	for i := 0; i <= 4; i++ {
		if _, ev := c.Access(mem.Addr(i)*stride, false, 0); ev != nil {
			t.Fatal("clean eviction produced a write-back")
		}
	}
}

// evictSet forces every line out of a's set with clean fills of other
// lines and returns the write-backs reported on the way.
func evictSet(c *Cache, a mem.Addr) []Eviction {
	stride := mem.Addr(c.Sets() * 64)
	var evs []Eviction
	for i := 1; i <= c.Config().Ways; i++ {
		if ev := c.Fill(a+mem.Addr(i)*stride, false, 0); ev != nil {
			evs = append(evs, *ev)
		}
	}
	return evs
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(small())
	c.Access(0x40, false, 0)
	c.Access(0x40, true, 0) // write hit dirties the line
	evs := evictSet(c, 0x40)
	if len(evs) != 1 || evs[0].Addr != 0x40 || !evs[0].Dirty {
		t.Fatalf("write hit did not dirty the line: write-backs %+v", evs)
	}
}

func TestFill(t *testing.T) {
	c := New(small())
	if ev := c.Fill(0x80, true, 3); ev != nil {
		t.Fatal("fill into empty cache evicted")
	}
	if !c.Lookup(0x80) {
		t.Fatal("fill did not insert")
	}
	// Fill of a present line only upgrades dirtiness.
	c.Fill(0x80, false, 3)
	evs := evictSet(c, 0x80)
	if len(evs) != 1 || evs[0].Addr != 0x80 || !evs[0].Dirty || evs[0].Meta != 3 {
		t.Fatalf("fill cleared dirty bit: write-backs %+v", evs)
	}
	if c.Stats().Accesses != 0 {
		t.Fatal("Fill counted as demand access")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := New(small())
	for i := 0; i < 10000; i++ {
		c.Access(mem.Addr(i)*64, false, 0)
	}
	max := 4096 / 64
	if got := c.Occupancy(); got != max {
		t.Fatalf("occupancy %d, want full %d", got, max)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New(small())
	c.Access(0, false, 0)
	c.Access(0, false, 0)
	c.Access(0, true, 0)
	st := c.Stats()
	if st.Accesses != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAddrRoundTripProperty(t *testing.T) {
	// Property: after accessing any address, the cache holds exactly
	// that line (Lookup true for every offset in the line).
	f := func(raw uint64) bool {
		c := New(small())
		a := mem.Addr(raw % (1 << 40))
		c.Access(a, false, 0)
		return c.Lookup(a) && c.Lookup(mem.LineAddr(a)) && c.Lookup(mem.LineAddr(a)+63)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionAddressInSameSetProperty(t *testing.T) {
	// Property: a reported eviction's address maps to the same set as
	// the access that displaced it.
	f := func(raw uint64, n uint8) bool {
		c := New(small())
		base := mem.Addr(raw % (1 << 40))
		sets := uint64(c.Sets())
		stride := mem.Addr(sets * 64)
		for i := 0; i < int(n%8)+5; i++ {
			_, ev := c.Access(base+mem.Addr(i)*stride, true, 0)
			if ev != nil {
				setOf := func(a mem.Addr) uint64 { return (uint64(a) >> 6) & (sets - 1) }
				if setOf(ev.Addr) != setOf(base) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
