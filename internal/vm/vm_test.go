package vm

import (
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func TestTranslateAllocatesOnFirstTouch(t *testing.T) {
	pt := NewPageTable()
	e := pt.Translate(0x123456789)
	// Second translation returns the same PTE.
	if pt.Translate(0x123456789) != e {
		t.Fatal("translate not idempotent")
	}
	if pt.Translate(0x123456000) != e {
		t.Fatal("same page, different offset gave different PTE")
	}
	if pt.Len() != 1 {
		t.Fatalf("len = %d", pt.Len())
	}
}

// TestDefaultLarge: under DefaultLarge one PTE covers a whole 2 MB
// region, keyed by the region's 2 MB page number.
func TestDefaultLarge(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	a := mem.Addr(0x40000000) // 2 MB aligned
	pt.Translate(a + mem.PageBytes*100)
	if n := pt.SetCached(mem.PageNum(a), true, 1); n != 0 {
		t.Fatalf("SetCached on the region's first 4 KB page number touched %d PTEs, want 0", n)
	}
	if n := pt.SetCached(mem.LargePageNum(a), true, 2); n != 1 {
		t.Fatalf("SetCached on the region's 2 MB page touched %d PTEs, want 1", n)
	}
	for _, off := range []mem.Addr{0, mem.PageBytes * 17, mem.LargeBytes - 1} {
		if e := pt.Translate(a + off); !e.Cached || e.Way != 2 {
			t.Fatalf("offset %#x: PTE %+v, want the region's cached way 2", uint64(off), e)
		}
	}
	if e := pt.Translate(a + mem.LargeBytes); e.Cached {
		t.Fatal("neighboring region shares the PTE")
	}
	if pt.Len() != 2 {
		t.Fatalf("len = %d, want one PTE per region", pt.Len())
	}
}

func TestSetCachedUnknownFrame(t *testing.T) {
	pt := NewPageTable()
	if n := pt.SetCached(0xDEAD, true, 0); n != 0 {
		t.Fatalf("SetCached on unknown frame touched %d", n)
	}
}

func TestPTEMapping(t *testing.T) {
	e := &PTE{Cached: true, Way: 2}
	m := e.Mapping()
	if !m.Known || !m.Cached || m.Way != 2 {
		t.Fatalf("mapping = %+v", m)
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(4)
	_, hit := tlb.Lookup(0x1000, pt)
	if hit {
		t.Fatal("cold TLB hit")
	}
	_, hit = tlb.Lookup(0x1040, pt) // same page
	if !hit {
		t.Fatal("TLB missed after fill")
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBCapacityLRU(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(2)
	tlb.Lookup(0x1000, pt)
	tlb.Lookup(0x2000, pt)
	tlb.Lookup(0x1000, pt) // refresh page 1
	tlb.Lookup(0x3000, pt) // evicts page 2
	if _, hit := tlb.Lookup(0x1000, pt); !hit {
		t.Fatal("MRU entry evicted")
	}
	if _, hit := tlb.Lookup(0x2000, pt); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestTLBStaleness(t *testing.T) {
	// The essence of Banshee's lazy coherence: a TLB entry is a
	// snapshot, so a PTE update is invisible until a shootdown.
	pt := NewPageTable()
	tlb := NewTLB(8)
	e, _ := tlb.Lookup(0x4000, pt)
	if e.Cached {
		t.Fatal("fresh PTE marked cached")
	}
	frame := mem.PageNum(0x4000)
	pt.SetCached(frame, true, 1)
	stale, hit := tlb.Lookup(0x4000, pt)
	if !hit {
		t.Fatal("expected TLB hit")
	}
	if stale.Cached {
		t.Fatal("TLB saw PTE update without shootdown — not a snapshot")
	}
	tlb.Flush()
	fresh, hit := tlb.Lookup(0x4000, pt)
	if hit {
		t.Fatal("hit after flush")
	}
	if !fresh.Cached || fresh.Way != 1 {
		t.Fatal("reload after shootdown did not see updated PTE")
	}
	if tlb.Shootdowns != 1 {
		t.Fatalf("shootdowns = %d", tlb.Shootdowns)
	}
}

func TestTLBLargePageKey(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	tlb := NewTLB(4)
	tlb.Lookup(0x40000000, pt)
	// Any 4 KB page in the same 2 MB region must hit the same entry.
	for _, off := range []mem.Addr{mem.PageBytes * 17, mem.LargeBytes - 1} {
		if _, hit := tlb.Lookup(0x40000000+off, pt); !hit {
			t.Fatalf("offset %#x: large-page TLB entry not shared across the region", uint64(off))
		}
	}
	if _, hit := tlb.Lookup(0x40000000+mem.LargeBytes, pt); hit {
		t.Fatal("neighboring region hit the large-page TLB entry")
	}
}

func TestTLBOccupancy(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(4)
	if tlb.Occupancy() != 0 {
		t.Fatal("fresh TLB not empty")
	}
	for i := 0; i < 10; i++ {
		tlb.Lookup(mem.Addr(i)<<mem.PageOffsetBits, pt)
	}
	if tlb.Occupancy() != 4 {
		t.Fatalf("occupancy %d, want 4", tlb.Occupancy())
	}
	tlb.Flush()
	if tlb.Occupancy() != 0 {
		t.Fatal("flush left entries valid")
	}
}

func TestNewTLBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0) did not panic")
		}
	}()
	NewTLB(0)
}

func TestDefaultCostModel(t *testing.T) {
	c := DefaultCostModel(2700)
	if c.PTEUpdateCycles != 54000 { // 20 µs × 2700 MHz
		t.Fatalf("PTE update cycles = %d, want 54000", c.PTEUpdateCycles)
	}
	if c.ShootdownInitiator != 10800 || c.ShootdownSlave != 2700 {
		t.Fatalf("shootdown costs = %d/%d", c.ShootdownInitiator, c.ShootdownSlave)
	}
}

func TestTranslationIdentityProperty(t *testing.T) {
	// Property: translating any two addresses on the same 4 KB page
	// allocates one PTE; on different pages, two, and marking one page
	// cached leaves the other alone.
	f := func(a, b uint64) bool {
		pt := NewPageTable()
		aa := mem.Addr(a % (1 << 44))
		bb := mem.Addr(b % (1 << 44))
		pt.Translate(aa)
		pt.SetCached(mem.PageNum(aa), true, 1)
		eb := pt.Translate(bb)
		if mem.PageNum(aa) == mem.PageNum(bb) {
			return pt.Len() == 1 && eb.Cached
		}
		return pt.Len() == 2 && !eb.Cached
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
