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

// Tag-buffer entry state bits (Fig. 2): valid, and the remap bit
// marking mappings not yet written back to the page table. The
// hardware entry also holds the page's cached and way bits; the model
// reads those from the metadata (Banshee.access), so an entry here is
// its page number, state and recency.
const (
	tbValid uint8 = 1 << iota
	tbRemap
)

// TagBuffer is one memory controller's buffer of recently remapped
// pages (§3.3). It is set-associative with LRU replacement masked to
// entries whose remap bit is unset: remapped entries are pinned until a
// flush writes them to the page table.
//
// Entry state is struct-of-arrays over flat backing storage (slot =
// set×ways+way): the lookup on every LLC miss scans a contiguous run
// of page tags, touching the state/stamp arrays only on a hit, and
// DrainRemaps's full sweep is one linear pass over the state bytes.
type TagBuffer struct {
	pages  []uint64
	stamps []uint64 // LRU among remap-unset entries
	state  []uint8
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
		pages:  make([]uint64, entries),
		stamps: make([]uint64, entries),
		state:  make([]uint8, entries),
		nways:  ways,
		mask:   uint64(nsets - 1),
	}
}

// Capacity returns the total number of slots.
func (tb *TagBuffer) Capacity() int { return len(tb.pages) }

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
	pages := tb.pages[base : base+tb.nways]
	state := tb.state[base : base+tb.nways]
	for i, p := range pages {
		if p == page && state[i]&tbValid != 0 {
			s := base + i
			tb.stamps[s] = tb.tick
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

func (tb *TagBuffer) insert(page uint64, remap bool) bool {
	tb.tick++
	base := int(page&tb.mask) * tb.nways
	// Update in place if present.
	for s := base; s < base+tb.nways; s++ {
		if tb.state[s]&tbValid != 0 && tb.pages[s] == page {
			if remap && tb.state[s]&tbRemap == 0 {
				tb.remapCount++
				tb.state[s] |= tbRemap
			}
			tb.stamps[s] = tb.tick
			return true
		}
	}
	// Choose a victim: an invalid slot, else the LRU among remap-unset
	// slots (the remap bits mask the LRU algorithm, §3.3).
	victim := -1
	for s := base; s < base+tb.nways; s++ {
		if tb.state[s]&tbValid == 0 {
			victim = s
			break
		}
	}
	if victim < 0 {
		for s := base; s < base+tb.nways; s++ {
			if tb.state[s]&tbRemap != 0 {
				continue
			}
			if victim < 0 || tb.stamps[s] < tb.stamps[victim] {
				victim = s
			}
		}
	}
	if victim < 0 {
		return false // all ways pinned by remaps: caller must flush
	}
	st := tbValid
	if remap {
		st |= tbRemap
		tb.remapCount++
	}
	tb.pages[victim] = page
	tb.state[victim] = st
	tb.stamps[victim] = tb.tick
	return true
}

// DrainRemaps clears every remap bit and returns how many were set:
// the number of PTEs the software flush routine updates. Entries stay
// valid (and evictable) to keep serving dirty-eviction lookups (§3.4).
func (tb *TagBuffer) DrainRemaps() int {
	n := tb.remapCount
	for s, st := range tb.state {
		if st&(tbValid|tbRemap) == tbValid|tbRemap {
			tb.state[s] = st &^ tbRemap
		}
	}
	tb.remapCount = 0
	return n
}
