package vm

import (
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func TestTranslateAllocatesOnFirstTouch(t *testing.T) {
	pt := NewPageTable()
	e := pt.Translate(0x123456789)
	if e.Size != mem.Page4K {
		t.Fatalf("bad PTE %+v", e)
	}
	if e.Frame != mem.PageNum(0x123456789) {
		t.Fatalf("identity frame expected, got %#x", e.Frame)
	}
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

func TestLargeRegionTranslation(t *testing.T) {
	pt := NewPageTable()
	a := mem.Addr(0x40000000) // 2 MB aligned
	pt.DeclareLargeRegion(a)
	e1 := pt.Translate(a)
	e2 := pt.Translate(a + mem.PageBytes*100) // different 4 KB page, same 2 MB region
	if e1 != e2 {
		t.Fatal("large region gave distinct PTEs within one 2 MB page")
	}
	if e1.Size != mem.Page2M {
		t.Fatal("large PTE has wrong size")
	}
	// Outside the region: regular 4 KB.
	e3 := pt.Translate(a + mem.LargeBytes)
	if e3.Size != mem.Page4K {
		t.Fatal("neighboring region inherited large size")
	}
}

func TestDefaultLarge(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	if pt.Translate(0x1234).Size != mem.Page2M {
		t.Fatal("DefaultLarge not applied")
	}
	if !pt.IsLarge(0x999999999) {
		t.Fatal("IsLarge false under DefaultLarge")
	}
}

func TestReverseMapping(t *testing.T) {
	pt := NewPageTable()
	e := pt.Translate(0x5000)
	ptes := pt.ReverseLookup(e.Frame)
	if len(ptes) != 1 || ptes[0] != e {
		t.Fatalf("reverse lookup = %v", ptes)
	}
}

func TestAliasing(t *testing.T) {
	pt := NewPageTable()
	e := pt.Translate(0x7000)
	alias, err := pt.Alias(0xABC, e.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if alias.Frame != e.Frame {
		t.Fatal("alias maps to wrong frame")
	}
	// Reverse map must see both (the §3.4 aliasing case TDC cannot
	// handle but reverse mapping can).
	if len(pt.ReverseLookup(e.Frame)) != 2 {
		t.Fatal("reverse map missed alias")
	}
	// SetCached must update both PTEs.
	if n := pt.SetCached(e.Frame, true, 3); n != 2 {
		t.Fatalf("SetCached touched %d PTEs, want 2", n)
	}
	// Returned PTEs are snapshots: re-read both through the table.
	e, alias = pt.Translate(0x7000), pt.Translate(mem.Addr(0xABC)<<mem.PageOffsetBits)
	if alias.Frame != e.Frame {
		t.Fatal("alias lost its frame after SetCached")
	}
	if !e.Cached || e.Way != 3 || !alias.Cached || alias.Way != 3 {
		t.Fatal("extension bits not propagated to all aliases")
	}
}

func TestAliasErrors(t *testing.T) {
	pt := NewPageTable()
	e := pt.Translate(0x1000)
	if _, err := pt.Alias(mem.PageNum(0x1000), e.Frame); err == nil {
		t.Fatal("aliasing an existing vpage must fail")
	}
	if _, err := pt.Alias(0xFFF, 0xDEAD); err == nil {
		t.Fatal("aliasing an unallocated frame must fail")
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
	pt.DeclareLargeRegion(0x40000000)
	tlb := NewTLB(4)
	tlb.Lookup(0x40000000, pt)
	// Any 4 KB page in the same 2 MB region must hit the same entry.
	if _, hit := tlb.Lookup(0x40000000+mem.PageBytes*17, pt); !hit {
		t.Fatal("large-page TLB entry not shared across the region")
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
	// yields the same PTE; on different pages, different PTEs.
	f := func(a, b uint64) bool {
		pt := NewPageTable()
		aa := mem.Addr(a % (1 << 44))
		bb := mem.Addr(b % (1 << 44))
		ea, eb := pt.Translate(aa), pt.Translate(bb)
		if mem.PageNum(aa) == mem.PageNum(bb) {
			return ea == eb
		}
		return ea != eb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
