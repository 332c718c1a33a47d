// Package banshee implements the paper's contribution: a page-granularity
// DRAM cache whose hardware tracks contents through PTE/TLB extension
// bits, keeps recently remapped pages in per-memory-controller Tag
// Buffers so PTE and TLB updates can be batched lazily (§3), and
// replaces pages with a sampling-based, bandwidth-aware frequency-based
// replacement policy (§4, Algorithm 1). Large (2 MB) pages are
// supported by instantiating the same machinery at large-page
// granularity (§4.3).
//
// The hardware needs the PTE bits and the tag buffers' copies of a
// page's mapping because it cannot read the metadata on the critical
// path. The model can, so the metadata is its one record of where a
// page lives. The tag buffers keep what sets the costs the paper
// measures: their recency and remap pins decide when the software
// flush runs and which dirty evictions pay a tag probe, and each flush
// charges the PTE-update routine, one PTE per drained remap, and the
// TLB shootdown.
package banshee

import "fmt"

// TagBuffer is one memory controller's buffer of recently remapped
// pages (§3.3). It is set-associative with LRU replacement masked to
// entries whose remap bit is unset: remapped entries are pinned until a
// flush writes them to the page table.
//
// Each entry is one word (slot = set×ways+way): (page+1)<<1 | remap,
// where remap marks a mapping not yet written back to the page table,
// and 0 is a free slot. A page number is below 2^36, so page+1 never
// wraps and a live entry is never 0. The hardware entry (Fig. 2) also
// holds the page's cached and way bits; the model reads those from the
// metadata (Banshee.access), so an entry here is its page number,
// remap bit and recency. The lookup on every LLC miss scans one run of
// words and touches the stamps only on a hit; DrainRemaps's sweep is
// one linear pass over the words.
type TagBuffer struct {
	keys   []uint64
	stamps []uint64 // LRU among remap-unset entries
	nways  int
	mask   uint64
	tick   uint64

	remapCount int // live entries with remap set
}

// NewTagBuffer builds a buffer with `entries` total slots organized as
// `ways`-way sets. entries/ways must be a power of two.
func NewTagBuffer(entries, ways int) *TagBuffer {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("banshee: bad tag buffer geometry %d entries / %d ways", entries, ways))
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("banshee: tag buffer set count %d must be a power of two", nsets))
	}
	return &TagBuffer{
		keys:   make([]uint64, entries),
		stamps: make([]uint64, entries),
		nways:  ways,
		mask:   uint64(nsets - 1),
	}
}

// Capacity returns the total number of slots.
func (tb *TagBuffer) Capacity() int { return len(tb.keys) }

// RemapFill returns the fraction of slots holding un-flushed remaps —
// the quantity compared against the flush threshold (70% in Table 3).
func (tb *TagBuffer) RemapFill() float64 {
	return float64(tb.remapCount) / float64(tb.Capacity())
}

// Lookup reports whether the buffer holds page, refreshing its recency
// on a hit. In hardware a hit overrides the mapping the request carried
// from the TLB (§3.2).
func (tb *TagBuffer) Lookup(page uint64) bool {
	tb.tick++
	base := int(page&tb.mask) * tb.nways
	want := (page + 1) << 1
	for i, k := range tb.keys[base : base+tb.nways] {
		if k&^1 == want {
			tb.stamps[base+i] = tb.tick
			return true
		}
	}
	return false
}

// InsertRemap records a just-remapped page. It returns false if the set
// has no insertable slot (every way pinned by remap) — the caller must
// flush and retry. The paper's flush-at-70% policy makes this rare but
// the case must be handled for correctness.
func (tb *TagBuffer) InsertRemap(page uint64) bool {
	return tb.insert(page, true)
}

// InsertClean records a page whose PTE is current (remap unset), to
// spare future dirty-eviction tag probes (§3.3). Clean entries are
// evictable; insertion failure is acceptable and ignored by callers.
func (tb *TagBuffer) InsertClean(page uint64) bool {
	return tb.insert(page, false)
}

// insert updates page's entry in place if present; otherwise it fills
// the first free slot, else the LRU among remap-unset slots (the remap
// bits mask the LRU algorithm, §3.3; the first minimum wins a tie). One
// pass over the set finds all three.
func (tb *TagBuffer) insert(page uint64, remap bool) bool {
	tb.tick++
	base := int(page&tb.mask) * tb.nways
	want := (page + 1) << 1
	free, lru := -1, -1
	for s := base; s < base+tb.nways; s++ {
		k := tb.keys[s]
		switch {
		case k&^1 == want:
			if remap && k&1 == 0 {
				tb.remapCount++
				tb.keys[s] = k | 1
			}
			tb.stamps[s] = tb.tick
			return true
		case k == 0:
			if free < 0 {
				free = s
			}
		case k&1 == 0:
			if lru < 0 || tb.stamps[s] < tb.stamps[lru] {
				lru = s
			}
		}
	}
	victim := free
	if victim < 0 {
		victim = lru
	}
	if victim < 0 {
		return false // all ways pinned by remaps: caller must flush
	}
	if remap {
		want |= 1
		tb.remapCount++
	}
	tb.keys[victim] = want
	tb.stamps[victim] = tb.tick
	return true
}

// DrainRemaps clears every remap bit and returns how many were set:
// the number of PTEs the software flush routine updates. Entries stay
// valid (and evictable) to keep serving dirty-eviction lookups (§3.4).
func (tb *TagBuffer) DrainRemaps() int {
	n := tb.remapCount
	for s, k := range tb.keys {
		tb.keys[s] = k &^ 1
	}
	tb.remapCount = 0
	return n
}
