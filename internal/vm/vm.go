// Package vm models the virtual-memory substrate Banshee's
// software/hardware co-design relies on: page tables whose PTEs carry the
// DRAM-cache mapping extension (cached bit + way bits, §3.2), per-core
// TLBs that may hold stale copies of those bits (the whole point of the
// lazy coherence protocol, §3.4), the OS reverse-mapping mechanism that
// locates all PTEs for a physical frame (including aliases), and the cost
// accounting for TLB shootdowns and page-table update routines.
//
// Address-space convention: workload traces emit virtual addresses.
// Frames are allocated on first touch; the allocator maps a virtual page
// to an equal-numbered physical frame, which keeps traces interpretable
// and lets the page table store per-page state alone, by value. Aliases
// can be created explicitly (Alias) to exercise the reverse map.
package vm

import (
	"fmt"

	"banshee/internal/mem"
	"banshee/internal/util"
)

// PTE is a page-table entry with Banshee's 3-bit extension. The page
// table hands out PTEs by value: a returned PTE is a snapshot, and
// SetCached changes the table, not the copies already handed out.
type PTE struct {
	VPage uint64 // virtual page number (index in the table)
	Frame uint64 // physical frame number
	Size  mem.PageSize

	// Banshee extension (§3.2). For a 4-way cache, Way needs 2 bits;
	// together with Cached this is the 3-bit PTE/TLB extension the paper
	// describes.
	Cached bool
	Way    uint8
}

// Mapping converts the PTE extension to the request-carried form.
func (p PTE) Mapping() mem.Mapping {
	return mem.Mapping{Known: true, Cached: p.Cached, Way: p.Way}
}

// PageTable maps virtual pages to frames and maintains the OS reverse
// map (frame → all PTEs), which Banshee's PTE-update routine uses to
// find every alias of a physical page (§3.4).
//
// The frame allocator is the identity, so a page's frame is its own
// vpage unless the page is an alias. The table therefore stores only
// each page's state, by value and without pointers, in one flat table
// keyed by vpage: a translation probes that table alone, and the GC
// never scans it. Aliases, the only pages whose frame differs, live in
// a side index that stays nil until the first Alias call.
type PageTable struct {
	entries util.Flat64[pageState] // vpage → state
	large   util.Flat64[struct{}]  // 2 MB-aligned vpages backed by large pages

	// The alias index, both nil until the first Alias call.
	aliasFrame map[uint64]uint64   // alias vpage → frame
	aliasesOf  map[uint64][]uint64 // frame → alias vpages, in mapping order

	revScratch []PTE // reused by ReverseLookup

	// DefaultLarge makes every translation allocate 2 MB pages (the
	// §5.4.1 "all data resides on large pages" experiment).
	DefaultLarge bool
}

// pageState is one page's entry: its size and DRAM-cache extension
// bits. An alias's frame is in aliasFrame; every other page is its own
// frame.
type pageState struct {
	size   mem.PageSize
	cached bool
	way    uint8
	alias  bool
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{}
}

// DeclareLargeRegion marks the 2 MB-aligned virtual region containing
// vaddr as backed by a large page; subsequent translations of any page
// in the region return a single 2 MB PTE.
func (pt *PageTable) DeclareLargeRegion(vaddr mem.Addr) {
	pt.large.Put(mem.LargePageNum(vaddr), struct{}{})
}

// IsLarge reports whether vaddr falls in a large-page region. It sits
// on the TLB lookup path, so the common all-4KB case exits on the
// region count alone without hashing.
func (pt *PageTable) IsLarge(vaddr mem.Addr) bool {
	if pt.DefaultLarge {
		return true
	}
	if pt.large.Len() == 0 {
		return false
	}
	_, ok := pt.large.Get(mem.LargePageNum(vaddr))
	return ok
}

// pte assembles the PTE of vpage from its state.
func (pt *PageTable) pte(vpage uint64, s pageState) PTE {
	frame := vpage
	if s.alias {
		frame = pt.aliasFrame[vpage]
	}
	return PTE{VPage: vpage, Frame: frame, Size: s.size, Cached: s.cached, Way: s.way}
}

// Translate returns the PTE for vaddr, allocating a frame on first
// touch. Large regions translate at 2 MB granularity: the PTE's VPage
// and Frame are then large-page numbers scaled to 4 KB frame units.
func (pt *PageTable) Translate(vaddr mem.Addr) PTE {
	key, size := mem.PageNum(vaddr), mem.Page4K
	if pt.IsLarge(vaddr) {
		key, size = mem.LargePageNum(vaddr)*mem.PagesPerLargePage, mem.Page2M // canonical 4 KB-unit index
	}
	s, ok := pt.entries.Get(key)
	if !ok {
		s = pageState{size: size}
		pt.entries.Put(key, s)
	}
	return pt.pte(key, s)
}

// Alias maps an additional virtual page onto an existing frame,
// modelling shared memory. It returns the new PTE. The frame must have
// been allocated already.
func (pt *PageTable) Alias(vpage, frame uint64) (PTE, error) {
	if _, ok := pt.entries.Get(vpage); ok {
		return PTE{}, fmt.Errorf("vm: vpage %#x already mapped", vpage)
	}
	src, ok := pt.entries.Get(frame)
	if !ok || src.alias {
		return PTE{}, fmt.Errorf("vm: frame %#x not allocated", frame)
	}
	if pt.aliasFrame == nil {
		pt.aliasFrame, pt.aliasesOf = map[uint64]uint64{}, map[uint64][]uint64{}
	}
	src.alias = true
	pt.entries.Put(vpage, src)
	pt.aliasFrame[vpage] = frame
	pt.aliasesOf[frame] = append(pt.aliasesOf[frame], vpage)
	return pt.pte(vpage, src), nil
}

// ReverseLookup returns all PTEs mapping the given frame, in mapping
// order — the OS reverse-mapping mechanism of §3.4: the frame's own
// page, then its aliases. The returned slice is scratch reused by the
// next call; copy it to keep it.
func (pt *PageTable) ReverseLookup(frame uint64) []PTE {
	out := pt.revScratch[:0]
	if s, ok := pt.entries.Get(frame); ok && !s.alias {
		out = append(out, pt.pte(frame, s))
		for _, vp := range pt.aliasesOf[frame] {
			s, _ := pt.entries.Get(vp)
			out = append(out, pt.pte(vp, s))
		}
	}
	pt.revScratch = out
	return out
}

// SetCached updates the DRAM-cache extension bits of every PTE mapping
// frame, returning how many PTEs were touched. This is the core of the
// software PTE-update routine triggered by a tag-buffer flush.
func (pt *PageTable) SetCached(frame uint64, cached bool, way uint8) int {
	s := pt.entries.GetPtr(frame)
	if s == nil || s.alias {
		return 0
	}
	s.cached, s.way = cached, way
	aliases := pt.aliasesOf[frame]
	for _, vp := range aliases {
		a := pt.entries.GetPtr(vp)
		a.cached, a.way = cached, way
	}
	return 1 + len(aliases)
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

func (t *TLB) keyFor(vaddr mem.Addr, pt *PageTable) uint64 {
	if pt.IsLarge(vaddr) {
		return mem.LargePageNum(vaddr)*mem.PagesPerLargePage | 1<<63 // disambiguate sizes
	}
	return mem.PageNum(vaddr)
}

// Lookup translates vaddr through the TLB, filling from the page table
// on a miss. It returns the (possibly stale) PTE snapshot and whether
// the translation hit in the TLB.
func (t *TLB) Lookup(vaddr mem.Addr, pt *PageTable) (PTE, bool) {
	key := t.keyFor(vaddr, pt)
	if i, ok := t.index.Get(key); ok {
		t.touch(i)
		t.Hits++
		return t.ptes[i], true
	}
	t.Misses++
	pte := pt.Translate(vaddr) // snapshot the current PTE content
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

// CostModel holds the software-cost parameters of §5.1 (Table 3),
// already converted to CPU cycles by the caller.
type CostModel struct {
	PTEUpdateCycles    uint64 // whole tag-buffer flush routine (20 µs default)
	ShootdownInitiator uint64 // 4 µs default
	ShootdownSlave     uint64 // 1 µs default
	PageWalkCycles     uint64 // TLB miss penalty, for 4 KB and 2 MB pages alike
	PerPTETouchCycles  uint64 // incremental cost per PTE updated in a flush
}

// DefaultCostModel returns the paper's Table 3 costs at the given clock.
func DefaultCostModel(cpuMHz float64) CostModel {
	us := func(n float64) uint64 { return uint64(n * cpuMHz) } // µs × MHz = cycles
	return CostModel{
		PTEUpdateCycles:    us(20),
		ShootdownInitiator: us(4),
		ShootdownSlave:     us(1),
		PageWalkCycles:     100,
		PerPTETouchCycles:  30,
	}
}
