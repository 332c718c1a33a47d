package banshee

import (
	"fmt"
	"math/bits"

	"banshee/internal/mc"
)

// The per-set metadata of Fig. 3: 32 bytes per set holding tags and
// frequency counters for the cached pages (one per way, with valid and
// dirty bits) and for the candidate pages being considered for
// insertion. With 4 ways this is 4 cached + 5 candidate entries, 5-bit
// counters — 0.2% overhead. The metadata lives in dedicated tag rows of
// the in-package DRAM; every load or store of it costs one 32 B burst,
// which is exactly the traffic the sampling policy minimizes.

// metaBytes is the metadata size per set moved on each sampled access.
const metaBytes = 32

// metadata is the full tag/counter store, one flat array per field.
// Way w of set s is slot s×ways+w of keys, counts, dirty and touched;
// candidate i of set s is slot s×ncand+i of candKeys and candCounts.
// A key is the page's tag plus one, so 0 marks a free slot and a probe
// is one compare per way over the set's contiguous keys (4 ways × 8 B:
// the 32 B of Fig. 3's set). keyOf and pageOf apply and undo the bias.
type metadata struct {
	keys   []uint64
	counts []uint32
	dirty  []bool
	// touched tracks the lines referenced during each residency, only
	// for the footprint extension (nil otherwise): idealized predictor
	// state, kept controller-side at no traffic cost, like Unison's
	// grant.
	touched    []mc.Touched
	candKeys   []uint64
	candCounts []uint32
	ways       int
	ncand      int
	maxCount   uint32
	setBits    uint
	setMask    uint64
}

func newMetadata(nsets, ways, candidates int, counterBits int, footprint bool) *metadata {
	if counterBits <= 0 || counterBits > 31 {
		panic(fmt.Sprintf("banshee: counter bits %d out of range", counterBits))
	}
	md := &metadata{
		keys:       make([]uint64, nsets*ways),
		counts:     make([]uint32, nsets*ways),
		dirty:      make([]bool, nsets*ways),
		candKeys:   make([]uint64, nsets*candidates),
		candCounts: make([]uint32, nsets*candidates),
		ways:       ways,
		ncand:      candidates,
		maxCount:   1<<uint(counterBits) - 1,
		setMask:    uint64(nsets - 1),
		setBits:    uint(bits.OnesCount64(uint64(nsets - 1))),
	}
	if footprint {
		md.touched = make([]mc.Touched, nsets*ways)
	}
	return md
}

// findCached returns the way of set s holding key, or -1.
func (md *metadata) findCached(s int, key uint64) int {
	base := s * md.ways
	for i, k := range md.keys[base : base+md.ways] {
		if k == key {
			return i
		}
	}
	return -1
}

// findCand returns the candidate index of set s holding key, or -1.
func (md *metadata) findCand(s int, key uint64) int {
	base := s * md.ncand
	for i, k := range md.candKeys[base : base+md.ncand] {
		if k == key {
			return i
		}
	}
	return -1
}

// minCached returns the way of set s holding the cached page with the
// minimal counter, or the first free way with free=true.
func (md *metadata) minCached(s int) (way int, free bool) {
	base := s * md.ways
	minWay := -1
	for i, k := range md.keys[base : base+md.ways] {
		if k == 0 {
			return i, true
		}
		if minWay < 0 || md.counts[base+i] < md.counts[base+minWay] {
			minWay = i
		}
	}
	return minWay, false
}

// halve divides every counter in set s by two (the hardware shift on
// counter saturation, Algorithm 1 lines 10-14).
func (md *metadata) halve(s int) {
	counts := md.counts[s*md.ways : (s+1)*md.ways]
	for i := range counts {
		counts[i] /= 2
	}
	cand := md.candCounts[s*md.ncand : (s+1)*md.ncand]
	for i := range cand {
		cand[i] /= 2
	}
}

// fill installs key with count in flat way slot i, clean and with no
// lines touched.
func (md *metadata) fill(i int, key uint64, count uint32) {
	md.keys[i], md.counts[i], md.dirty[i] = key, count, false
	if md.touched != nil {
		md.touched[i] = 0
	}
}

// setIndex returns the set index for a page, its low page-number bits
// (the caller guarantees power-of-two set counts).
func (md *metadata) setIndex(page uint64) int {
	return int(page & md.setMask)
}

// keyOf returns a page's key: its tag (the page number above the
// set-index bits) plus one.
func (md *metadata) keyOf(page uint64) uint64 {
	return page>>md.setBits + 1
}

// pageOf reconstructs a page number from a set index and key.
func (md *metadata) pageOf(setIdx int, key uint64) uint64 {
	return (key-1)<<md.setBits | uint64(setIdx)
}
