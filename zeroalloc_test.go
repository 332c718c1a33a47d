// Zero-allocation regression tests for the simulator's hot paths: after
// warmup, one demand access through each scheme's Access — and one call
// into the SRAM cache, the TLB, the page table's PTE update, the DRAM
// timing model, the tag buffer and the workload generator — must not
// allocate. The schemes reuse scratch Op buffers handed back through
// mc.Result (see the ownership note there); these tests pin that
// property so a future refactor can't silently reintroduce per-access
// garbage into the simulator's innermost loop.
package banshee_test

import (
	"testing"

	"banshee/internal/alloy"
	bcore "banshee/internal/banshee"
	"banshee/internal/cache"
	"banshee/internal/cameo"
	"banshee/internal/dram"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/schemes"
	"banshee/internal/tdc"
	"banshee/internal/trace"
	"banshee/internal/unison"
	"banshee/internal/vm"
)

const allocCapacity = 16 << 20 // 16 MB DRAM cache for the alloc tests

// zeroAlloc runs step over indices [0, 100000) to grow scratch buffers,
// metadata, page tables and internal maps to their steady-state working
// set (the warmup touches every page of the widest, 65536-page stream),
// then fails t if the next steps allocate.
func zeroAlloc(t *testing.T, name string, step func(i int)) {
	t.Helper()
	const warm = 100_000
	for i := 0; i < warm; i++ {
		step(i)
	}
	i := warm
	avg := testing.AllocsPerRun(2000, func() {
		step(i)
		i++
	})
	if avg != 0 {
		t.Errorf("%s: steady-state call allocates %v per op, want 0", name, avg)
	}
}

// schemeStep issues the i-th access of a skewed mix of reads, writes
// and dirty evictions across `pages` 4 KB pages, with mappings resolved
// through pt the way the simulator would.
func schemeStep(s mc.Scheme, pt *vm.PageTable, pages uint64, i int) {
	page := (uint64(i) * 2654435761) % pages
	addr := mem.Addr(page<<12 | uint64(i%64)<<6)
	pte := pt.Translate(addr)
	if i%7 == 0 {
		s.Access(mem.Request{Addr: addr, Write: true, Eviction: true, Mapping: pte.Mapping()})
	} else {
		s.Access(mem.Request{Addr: addr, Write: i%3 == 0, Mapping: pte.Mapping()})
	}
}

func testZeroAlloc(t *testing.T, s mc.Scheme, pages uint64) {
	t.Helper()
	pt := vm.NewPageTable()
	zeroAlloc(t, s.Name(), func(i int) { schemeStep(s, pt, pages, i) })
}

// TestBansheeAccessZeroAlloc resolves mappings through the page table
// the scheme updates, so its PTE rewrites feed back into the stream.
func TestBansheeAccessZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		capacity    int
		pages, seed uint64
	}{
		{allocCapacity, 32768, 7},
		{64 << 20, 65536, 1}, // 64 MB cache under a 256 MB address range
	} {
		pt := vm.NewPageTable()
		cfg := bcore.DefaultConfig(c.capacity)
		cfg.Seed = c.seed
		s := bcore.New(cfg, pt, nil, vm.DefaultCostModel(2700))
		zeroAlloc(t, s.Name(), func(i int) { schemeStep(s, pt, c.pages, i) })
	}
}

func TestAlloyAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, alloy.New(alloy.Config{CapacityBytes: allocCapacity, FillProb: 0.1, Seed: 7}), 32768)
}

func TestUnisonAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, unison.New(unison.Config{CapacityBytes: allocCapacity}), 32768)
}

func TestCameoAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, cameo.New(cameo.Config{CapacityBytes: allocCapacity}), 32768)
}

func TestTDCAccessZeroAlloc(t *testing.T) {
	testZeroAlloc(t, tdc.New(tdc.Config{CapacityBytes: allocCapacity}), 32768)
}

func TestBoundingSchemesZeroAlloc(t *testing.T) {
	testZeroAlloc(t, schemes.NewNoCache(), 4096)
	testZeroAlloc(t, schemes.NewCacheOnly(), 4096)
}

// TestCacheAccessZeroAlloc drives a 512 KB 16-way LRU cache — an L2-
// sized level of the SRAM hierarchy — with a uniform stream over 4 MB.
func TestCacheAccessZeroAlloc(t *testing.T) {
	c := cache.New(cache.Config{
		Name: "alloc", SizeBytes: 512 << 10, Ways: 16, LineBytes: 64, Policy: cache.LRU,
	})
	zeroAlloc(t, "cache.Access", func(i int) {
		c.Access(mem.Addr(uint64(i*2654435761)%(4<<20)), i%4 == 0, 0)
	})
}

// TestCacheFillZeroAlloc drives a 64 KB 8-way LRU cache — the L1/L2
// shape — with demand accesses interleaved with Fill, the path every
// L2 victim takes into the L3.
func TestCacheFillZeroAlloc(t *testing.T) {
	c := cache.New(cache.Config{
		Name: "alloc-fill", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, Policy: cache.LRU,
	})
	zeroAlloc(t, "cache.Fill", func(i int) {
		a := mem.Addr(uint64(i*2654435761) % (1 << 20))
		if i%3 == 0 {
			c.Fill(a, i%2 == 0, uint8(i))
		} else {
			c.Access(a, i%4 == 0, 0)
		}
	})
}

// TestDRAMAccessZeroAlloc drives the in-package channel timing model
// with a uniform stream over 1 GB, 10 cycles apart.
func TestDRAMAccessZeroAlloc(t *testing.T) {
	d := dram.New(dram.InPackageConfig(2700))
	zeroAlloc(t, "dram.Access", func(i int) {
		d.Access(uint64(i)*10, mem.Addr(uint64(i*2654435761)%(1<<30)), 64, i%4 == 0, i%2 == 0)
	})
}

// TestTLBLookupZeroAlloc drives a 64-entry TLB over 1024 mapped pages:
// every other lookup goes to a 32-page hot set that hits, the rest miss
// into the page table, and a shootdown flushes the TLB every 1000 steps.
func TestTLBLookupZeroAlloc(t *testing.T) {
	pt, tlb := vm.NewPageTable(), vm.NewTLB(64)
	zeroAlloc(t, "TLB.Lookup", func(i int) {
		if i%1000 == 0 {
			tlb.Flush()
		}
		page := (uint64(i) * 2654435761) % 1024
		if i%2 == 0 {
			page %= 32
		}
		tlb.Lookup(mem.Addr(page<<12|uint64(i%64)<<6), pt)
	})
}

// TestSetCachedZeroAlloc pins the PTE update a tag-buffer flush makes
// for each remapped frame.
func TestSetCachedZeroAlloc(t *testing.T) {
	pt := vm.NewPageTable()
	for page := uint64(0); page < 4096; page++ {
		pt.Translate(mem.Addr(page << 12))
	}
	zeroAlloc(t, "PageTable.SetCached", func(i int) {
		pt.SetCached(uint64(i)%4096, i%2 == 0, uint8(i%4))
	})
}

// TestTagBufferZeroAlloc drives the tag buffer's lookup/insert path —
// the structure on every LLC miss's way through a Banshee MC — draining
// remaps whenever an insert finds no room.
func TestTagBufferZeroAlloc(t *testing.T) {
	tb := bcore.NewTagBuffer(1024, 8)
	zeroAlloc(t, "TagBuffer", func(i int) {
		page := uint64(i) % 4096
		if _, hit := tb.Lookup(page); !hit {
			if !tb.InsertClean(page, true, uint8(i%4)) {
				tb.DrainRemaps()
			}
		}
	})
}

// TestTraceGenZeroAlloc pins workload event generation.
func TestTraceGenZeroAlloc(t *testing.T) {
	w, err := trace.New("pagerank", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	zeroAlloc(t, "trace.Next", func(i int) { w.Next(i % 16) })
}
