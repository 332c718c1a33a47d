// Package vm models the virtual-memory substrate Banshee's
// software/hardware co-design relies on: page tables whose PTEs carry the
// DRAM-cache mapping extension (cached bit + way bits, §3.2), per-core
// TLBs that may hold stale copies of those bits (the whole point of the
// lazy coherence protocol, §3.4), and the cost accounting for TLB
// shootdowns and page-table update routines.
//
// Address-space convention: workload traces emit virtual addresses.
// Frames are allocated on first touch; the allocator maps a virtual page
// to an equal-numbered physical frame, so every frame has exactly one
// PTE — the frame's own — and the reverse map of §3.4 is the identity.
// The page size is a property of the run (DefaultLarge, the §5.4.1
// "all data on 2 MB pages" experiment), not of each page.
package vm

import (
	"fmt"

	"banshee/internal/mem"
	"banshee/internal/util"
)

// PTE is a page-table entry's Banshee extension (§3.2). For a 4-way
// cache, Way needs 2 bits; together with Cached this is the 3-bit
// PTE/TLB extension the paper describes. The page table hands out PTEs
// by value: a returned PTE is a snapshot, and SetCached changes the
// table, not the copies already handed out.
type PTE struct {
	Cached bool
	Way    uint8
}

// Mapping converts the PTE extension to the request-carried form.
func (p PTE) Mapping() mem.Mapping {
	return mem.Mapping{Known: true, Cached: p.Cached, Way: p.Way}
}

// PageTable maps virtual pages to frames. The frame allocator is the
// identity, so a page's frame is its own page number, and the table
// stores only each page's PTE, by value and without pointers, in one
// flat table keyed by page number at the run's page size: a
// translation probes that table alone, and the GC never scans it.
type PageTable struct {
	entries util.Flat64[PTE] // page key → PTE

	// DefaultLarge makes every translation allocate 2 MB pages (the
	// §5.4.1 "all data resides on large pages" experiment).
	DefaultLarge bool
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// key returns the page key vaddr translates under: its 4 KB page
// number, or under DefaultLarge its 2 MB page number — the page number
// SetCached takes.
func (pt *PageTable) key(vaddr mem.Addr) uint64 {
	if pt.DefaultLarge {
		return mem.LargePageNum(vaddr)
	}
	return mem.PageNum(vaddr)
}

// Translate returns the PTE for vaddr, allocating a frame on first
// touch.
func (pt *PageTable) Translate(vaddr mem.Addr) PTE {
	return pt.translate(pt.key(vaddr))
}

func (pt *PageTable) translate(key uint64) PTE {
	e, ok := pt.entries.Get(key)
	if !ok {
		pt.entries.Put(key, e)
	}
	return e
}

// SetCached updates the DRAM-cache extension bits of the PTE of page (a
// page number at the run's page size), returning how many PTEs were
// touched: 1, or 0 for a page that was never allocated. This is the
// core of the software PTE-update routine triggered by a tag-buffer
// flush.
func (pt *PageTable) SetCached(page uint64, cached bool, way uint8) int {
	e := pt.entries.GetPtr(page)
	if e == nil {
		return 0
	}
	e.Cached, e.Way = cached, way
	return 1
}

// Len returns the number of PTEs (diagnostic).
func (pt *PageTable) Len() int { return pt.entries.Len() }

// TLB is one core's translation lookaside buffer (fully associative,
// exact LRU). TLB miss *timing* is modeled by the simulator via
// WalkCycles.
//
// Entries are PTE snapshots, not references into the page table, so
// they model stale TLB contents; like the page table, the TLB holds no
// pointers. An index table makes the hit path O(1), and recency is a
// doubly-linked MRU list of slot indices, so a miss evicts the list
// tail in O(1). Entries are only invalidated wholesale (Flush), so the
// valid entries always form the prefix [0, filled): until the TLB is
// full, the victim is the fill frontier.
type TLB struct {
	vpages     []uint64
	ptes       []PTE // snapshots, not pointers: model stale TLB contents
	next, prev []int32
	head, tail int32 // MRU and LRU ends of the recency list
	filled     int
	index      util.Flat64[int32] // vpage key → slot, mirrors entries [0, filled)

	Hits, Misses uint64
	Shootdowns   uint64
}

// NewTLB returns a TLB with n entries. n must be positive.
func NewTLB(n int) *TLB {
	if n <= 0 {
		panic(fmt.Sprintf("vm: TLB size must be positive, got %d", n))
	}
	return &TLB{
		vpages: make([]uint64, n),
		ptes:   make([]PTE, n),
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

// Lookup translates vaddr through the TLB, filling from the page table
// on a miss. It returns the (possibly stale) PTE snapshot and whether
// the translation hit in the TLB.
func (t *TLB) Lookup(vaddr mem.Addr, pt *PageTable) (PTE, bool) {
	key := pt.key(vaddr)
	if i, ok := t.index.Get(key); ok {
		t.touch(i)
		t.Hits++
		return t.ptes[i], true
	}
	t.Misses++
	pte := pt.translate(key) // snapshot the current PTE content
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
	t.ptes[victim] = pte
	t.index.Put(key, victim)
	return pte, false
}

// Flush invalidates every entry (a TLB shootdown's effect on this core).
func (t *TLB) Flush() {
	t.Shootdowns++
	t.filled = 0
	t.head, t.tail = -1, -1
	t.index.Clear()
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
	us := func(n float64) uint64 { return uint64(n * cpuMHz) } // µs × MHz = cycles
	return CostModel{
		PTEUpdateCycles:    us(20),
		ShootdownInitiator: us(4),
		ShootdownSlave:     us(1),
	}
}
