package banshee

import (
	"testing"

	"banshee/internal/mem"
)

func TestSetDuelingName(t *testing.T) {
	b := testSystem(func(c *Config) { c.Policy = SetDueling })
	if b.Name() != "Banshee Duel" {
		t.Fatalf("name %q", b.Name())
	}
}

func TestSetDuelingLeadersVote(t *testing.T) {
	b := testSystem(func(c *Config) { c.Policy = SetDueling })
	sets := nsets(b)
	// Misses to an FBR-leader set (set 0 mod duelPeriod) push psel up.
	for i := 0; i < 50; i++ {
		touch(b, mem.Addr((uint64(i)*sets*uint64(duelPeriod))<<12))
	}
	if b.psel <= 0 {
		t.Fatalf("psel %d after FBR-leader misses, want positive", b.psel)
	}
	// Misses to an LRU-leader set (set 1 mod duelPeriod) push it down.
	start := b.psel
	for i := 0; i < 200; i++ {
		touch(b, mem.Addr((uint64(i)*sets*uint64(duelPeriod)+1)<<12))
	}
	if b.psel >= start {
		t.Fatalf("psel %d did not fall after LRU-leader misses (was %d)", b.psel, start)
	}
}

func TestSetDuelingFollowersAdaptToStreams(t *testing.T) {
	// A pure streaming pattern (every page touched once) makes FBR
	// leaders miss constantly while LRU leaders at least absorb
	// re-touches; psel must drift positive so followers replace on miss.
	b := testSystem(func(c *Config) { c.Policy = SetDueling })
	// Stream whole pages: 8 line touches per page visit, pages never
	// revisited. Replace-on-miss leaders convert touches 2..8 into hits;
	// FBR leaders miss on all of them.
	for i := 0; i < 6000; i++ {
		base := mem.Addr(uint64(i) << 12)
		for l := 0; l < 8; l++ {
			touch(b, base+mem.Addr(l*64))
		}
	}
	if b.psel <= 0 {
		t.Fatalf("psel %d after pure streaming, want positive (prefer replace-on-miss)", b.psel)
	}
	// Follower misses must now trigger replacements (LRU mode).
	before := b.remaps
	for i := 0; i < 1000; i++ {
		touch(b, mem.Addr(uint64(1<<30+i*4096)))
	}
	if b.remaps == before {
		t.Fatal("followers did not replace on miss despite positive psel")
	}
}

func TestFootprintVariantName(t *testing.T) {
	b := testSystem(func(c *Config) { c.Footprint = true })
	if b.Name() != "Banshee FP" {
		t.Fatalf("name %q", b.Name())
	}
}

func TestFootprintReducesReplacementBytes(t *testing.T) {
	moveBytes := func(fp bool) int {
		b := testSystem(func(c *Config) {
			c.SamplingCoeff = 1.0
			c.Footprint = fp
		})
		// Train the footprint tracker with sparse residencies: promote
		// pages, touch ~4 lines each, evict by promoting successors in
		// the same set.
		sets := nsets(b)
		total := 0
		for round := 0; round < 30; round++ {
			page := uint64(round) * sets // all in set 0
			addr := mem.Addr(page << 12)
			for i := 0; i < 40; i++ {
				res := b.Access(mem.Request{Addr: addr + mem.Addr((i%4)*64)})
				for _, op := range res.Ops {
					if op.Class == mem.ClassReplacement && op.Target == mem.InPackage && op.Write {
						total += op.Bytes
					}
				}
			}
		}
		return total
	}
	full, fp := moveBytes(false), moveBytes(true)
	if fp >= full {
		t.Fatalf("footprint fills (%d B) not below whole-page fills (%d B)", fp, full)
	}
}

func TestFootprintTouchedTracking(t *testing.T) {
	b := testSystem(func(c *Config) {
		c.SamplingCoeff = 1.0
		c.Footprint = true
	})
	addr := mem.Addr(0x9000)
	for i := 0; i < 50; i++ {
		touch(b, addr)
		if r, _ := b.Resident(uint64(addr) >> 12); r {
			break
		}
	}
	// Hit three distinct lines; the residency's touched set must grow.
	for l := 0; l < 3; l++ {
		touch(b, addr+mem.Addr(l*64))
	}
	page := uint64(addr) >> 12
	s := b.md.setIndex(page)
	w := b.md.findCached(s, b.md.keyOf(page))
	if w < 0 {
		t.Fatal("page not resident")
	}
	if got := b.md.touched[s*b.md.ways+w].Count(); got < 3 {
		t.Fatalf("touched lines %d, want >= 3", got)
	}
}
