package vm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

// TestTranslateAllocatesOnFirstTouch: the frame allocator is the
// identity, so a first touch and every later one translate to the
// page's own number, at any offset within it.
func TestTranslateAllocatesOnFirstTouch(t *testing.T) {
	pt := NewPageTable()
	f := pt.Translate(0x123456789)
	if f != 0x123456 {
		t.Fatalf("frame %#x, want the page number 0x123456", f)
	}
	if pt.Translate(0x123456789) != f || pt.Translate(0x123456000) != f {
		t.Fatal("same page translated to different frames")
	}
}

// TestDefaultLarge: under DefaultLarge a whole 2 MB region translates
// to one frame, the region's 2 MB page number.
func TestDefaultLarge(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	a := mem.Addr(0x40000000) // 2 MB aligned
	for _, off := range []mem.Addr{0, mem.PageBytes * 17, mem.LargeBytes - 1} {
		if f := pt.Translate(a + off); f != mem.LargePageNum(a) {
			t.Fatalf("offset %#x: frame %#x, want the region's 2 MB page %#x", uint64(off), f, mem.LargePageNum(a))
		}
	}
	if pt.Translate(a+mem.LargeBytes) == pt.Translate(a) {
		t.Fatal("neighboring region shares the frame")
	}
}

func TestTLBHitMiss(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(4)
	if hit, _ := tlb.Lookup(0x1000, pt); hit {
		t.Fatal("cold TLB hit")
	}
	if hit, prev := tlb.Lookup(0x1040, pt); !hit || prev != 0 { // same page
		t.Fatalf("second lookup of the page: hit %v prev %d, want a hit on lookup 0", hit, prev)
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
	if hit, prev := tlb.Lookup(0x1000, pt); !hit || prev != 2 {
		t.Fatalf("MRU entry: hit %v prev %d, want a hit on lookup 2", hit, prev)
	}
	if hit, _ := tlb.Lookup(0x2000, pt); hit {
		t.Fatal("LRU entry survived")
	}
}

func TestTLBLargePageKey(t *testing.T) {
	pt := NewPageTable()
	pt.DefaultLarge = true
	tlb := NewTLB(4)
	tlb.Lookup(0x40000000, pt)
	// Any 4 KB page in the same 2 MB region must hit the same entry.
	for _, off := range []mem.Addr{mem.PageBytes * 17, mem.LargeBytes - 1} {
		if hit, _ := tlb.Lookup(0x40000000+off, pt); !hit {
			t.Fatalf("offset %#x: large-page TLB entry not shared across the region", uint64(off))
		}
	}
	if hit, _ := tlb.Lookup(0x40000000+mem.LargeBytes, pt); hit {
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
}

// TestTLBShootdownRule is the differential check of the rule the
// simulator charges shootdowns by: over random page streams with random
// shootdown points, a reference TLB that is flushed at each point hits
// exactly when the never-flushed TLB hits and the page's previous
// lookup came at or after the last flush.
func TestTLBShootdownRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var flips uint64 // hits a flush turned into misses
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.IntN(16)
		pages := uint64(1 + rng.IntN(4*size))
		flushP := rng.Float64() * 0.1
		pt := NewPageTable()
		tlb := NewTLB(size)
		ref := &refTLB{size: size}
		var flushAt uint64
		for i := uint64(0); i < 2000; i++ {
			if rng.Float64() < flushP {
				ref.flush()
				flushAt = i
			}
			addr := mem.Addr(rng.Uint64N(pages)<<mem.PageOffsetBits | rng.Uint64N(mem.PageBytes))
			hit, prev := tlb.Lookup(addr, pt)
			want := ref.lookup(addr)
			if got := hit && prev >= flushAt; got != want {
				t.Fatalf("trial %d (size %d, %d pages), lookup %d: rule says hit %v (TLB hit %v, prev %d, last flush %d), flushed reference %v",
					trial, size, pages, i, got, hit, prev, flushAt, want)
			}
			if hit && !want {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Fatal("no flush ever turned a hit into a miss; the check is vacuous")
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
	// Property: every address translates to its own 4 KB page number,
	// so two addresses share a frame exactly when they share a page.
	f := func(a, b uint64) bool {
		pt := NewPageTable()
		aa := mem.Addr(a % (1 << 44))
		bb := mem.Addr(b % (1 << 44))
		fa, fb := pt.Translate(aa), pt.Translate(bb)
		return fa == mem.PageNum(aa) && (fa == fb) == (mem.PageNum(aa) == mem.PageNum(bb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
