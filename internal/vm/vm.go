// Package vm models the virtual-memory substrate Banshee's
// software/hardware co-design relies on: translation at the run's page
// size, per-core TLBs whose misses cost a page walk, and the cost
// accounting for TLB shootdowns and page-table update routines. A TLB
// here is never flushed: it stamps each entry with its last lookup, and
// the simulator derives a shot-down TLB's hits from those stamps (see
// TLB.Lookup).
//
// The paper's hardware keeps a cached page's location in three places:
// the DRAM cache's metadata, the tag buffers, and a 3-bit PTE/TLB
// extension (cached bit + way bits, §3.2) that travels with each
// request, because the controller cannot read the metadata on the
// critical path. The model can, so it keeps that location in Banshee's
// metadata alone: no PTE here stores the extension bits, and no TLB
// entry holds a stale copy of them. The costs the paper charges for
// keeping them coherent — the PTE-update routine, its per-PTE work and
// the shootdowns — are still charged (internal/banshee).
//
// Address-space convention: workload traces emit virtual addresses, and
// the allocator maps a virtual page to an equal-numbered physical
// frame, so every frame has exactly one PTE — the frame's own — and the
// reverse map of §3.4 is the identity. The page size is a property of
// the run (DefaultLarge, the §5.4.1 "all data on 2 MB pages"
// experiment), not of each page.
package vm

import (
	"fmt"

	"banshee/internal/mem"
	"banshee/internal/util"
)

// PageTable translates virtual pages to frames. The frame allocator is
// the identity, so a page's frame is its own page number and the table
// stores nothing: it holds only the run's page size. Where a cached
// page lives in the DRAM cache is Banshee's metadata to say, not the
// page table's; the model charges the paper's PTE-update costs without
// storing the PTE extension bits (§3.2).
type PageTable struct {
	// DefaultLarge makes every translation use 2 MB pages (the §5.4.1
	// "all data resides on large pages" experiment).
	DefaultLarge bool
}

// NewPageTable returns a page table at 4 KB page size.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// Translate returns vaddr's frame number at the run's page size: its
// 4 KB page number, or under DefaultLarge its 2 MB page number.
func (pt *PageTable) Translate(vaddr mem.Addr) uint64 {
	if pt.DefaultLarge {
		return mem.LargePageNum(vaddr)
	}
	return mem.PageNum(vaddr)
}

// TLB is one core's translation lookaside buffer (fully associative,
// exact LRU). It holds page numbers only: its hits and misses set the
// page-walk timing the simulator charges. An index table makes the hit
// path O(1), and recency is a doubly-linked MRU list of slot indices,
// so a miss evicts the list tail in O(1). Entries are never
// invalidated, so the valid entries always form the prefix [0,
// filled): until the TLB is full, the victim is the fill frontier.
//
// Each slot also stamps the index of its page's last lookup (the
// lookup count Hits+Misses at that time). That stamp decides what a
// TLB shootdown would have done without performing one: both TLBs are
// exact LRU, so a TLB flushed before lookup f hits on lookup i ≥ f iff
// this one hits and the page's previous lookup came at or after f.
type TLB struct {
	vpages     []uint64
	stamps     []uint64 // index of each slot's last lookup
	next, prev []int32
	head, tail int32 // MRU and LRU ends of the recency list
	filled     int
	index      util.Flat64[int32] // vpage key → slot, mirrors entries [0, filled)

	Hits, Misses uint64
}

// NewTLB returns a TLB with n entries. n must be positive.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("vm: TLB size must be positive, got %d", n))
	}
	return &TLB{
		vpages: make([]uint64, n),
		stamps: make([]uint64, n),
		next:   make([]int32, n),
		prev:   make([]int32, n),
		head:   -1,
		tail:   -1,
		index:  *util.NewFlat64[int32](n),
	}
}

// touch moves slot i to the MRU end of the recency list.
func (t *TLB) touch(i int32) {
	if t.head == i {
		return
	}
	// Unlink (i is not head, so it has a predecessor).
	p, n := t.prev[i], t.next[i]
	t.next[p] = n
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	// Push front.
	t.prev[i] = -1
	t.next[i] = t.head
	t.prev[t.head] = i
	t.head = i
}

// pushFront links a fresh slot at the MRU end.
func (t *TLB) pushFront(i int32) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = i
	} else {
		t.tail = i
	}
	t.head = i
}

// Lookup translates vaddr through the TLB, filling the entry on a
// miss, and reports whether the translation hit. On a hit, prev is the
// index of the page's previous lookup: a TLB shot down before lookup f
// would have missed unless prev ≥ f (see TLB).
func (t *TLB) Lookup(vaddr mem.Addr, pt *PageTable) (hit bool, prev uint64) {
	key := pt.Translate(vaddr)
	now := t.Hits + t.Misses
	if i, ok := t.index.Get(key); ok {
		t.touch(i)
		t.Hits++
		prev, t.stamps[i] = t.stamps[i], now
		return true, prev
	}
	t.Misses++
	var victim int32
	if t.filled < len(t.vpages) {
		victim = int32(t.filled) // the first free slot
		t.filled++
		t.pushFront(victim)
	} else {
		victim = t.tail // exact LRU
		t.index.Delete(t.vpages[victim])
		t.touch(victim)
	}
	t.vpages[victim] = key
	t.stamps[victim] = now
	t.index.Put(key, victim)
	return false, 0
}

// Occupancy returns the number of valid entries (diagnostic).
func (t *TLB) Occupancy() int { return t.filled }

// CostModel holds the software-cost parameters of §5.1 (Table 3) that
// are given in µs, already converted to CPU cycles by the caller.
type CostModel struct {
	PTEUpdateCycles    uint64 // whole tag-buffer flush routine (20 µs default)
	ShootdownInitiator uint64 // 4 µs default
	ShootdownSlave     uint64 // 1 µs default
}

// DefaultCostModel returns the paper's Table 3 costs at the given clock.
func DefaultCostModel(cpuMHz float64) CostModel {
	// µs × MHz = cycles; the product is rounded, so no FMA forms.
	us := func(n float64) uint64 { return uint64(float64(n * cpuMHz)) }
	return CostModel{
		PTEUpdateCycles:    us(20),
		ShootdownInitiator: us(4),
		ShootdownSlave:     us(1),
	}
}
