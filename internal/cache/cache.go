// Package cache implements the set-associative SRAM caches of the
// simulated chip (L1I/L1D, L2, shared L3), managed at 64 B line
// granularity with write-back/write-allocate semantics. The L1, L2 and
// L3 caches use it; the TLBs and Banshee's tag buffer have structures
// of their own.
//
// Beyond plain lookup, lines carry caller metadata bits (the per-line
// page-size bit of §4.3 used to route LLC dirty evictions). There is no
// page flush: HMA charges its cache scrub as a cost (mc.SWCost), and
// Banshee's large-page handling never flushes these caches.
//
// Replacement is LRU. Each set keeps its lines as a ring in recency
// order, most recently used first, so the victim of a full set is the
// slot before the ring's head and the only replacement state is that
// head — see DESIGN.md §10.
package cache

import (
	"fmt"
	"math/bits"

	"banshee/internal/mem"
)

// Policy names the replacement policy. LRU is its only value.
type Policy uint8

// LRU evicts the least recently used line of a full set.
const LRU Policy = 0

// Config sizes a cache.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	Policy    Policy // must be LRU
	Seed      uint64 // unread: the cache holds no random state
}

func (c Config) validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache %q: size must be positive, got %d", c.Name, c.SizeBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %q: ways must be positive, got %d", c.Name, c.Ways)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %q: line bytes must be a positive power of two, got %d", c.Name, c.LineBytes)
	case c.Policy != LRU:
		return fmt.Errorf("cache %q: policy %d is not LRU", c.Name, c.Policy)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d must be a positive power of two", c.Name, sets)
	}
	return nil
}

// Eviction describes a line displaced by a fill. Pointers returned by
// Access and Fill reference a per-cache scratch value that the next
// call overwrites — consume (or copy) an eviction before touching the
// same cache again. The simulator's per-event loop runs billions of
// evictions per sweep; reusing the scratch keeps the loop
// allocation-free.
type Eviction struct {
	Addr  mem.Addr
	Dirty bool
	Meta  uint8
}

// Stats counts demand accesses and their misses. The simulator counts
// a run's cache statistics in stats.Sim; these feed perfbench's replay
// of the hierarchy.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// A line is one packed word, tag<<tagShift | valid | meta<<1 | dirty,
// so a tag must fit in maxTagBits bits. A free slot is 0.
const (
	tagShift   = 16
	maxTagBits = 64 - tagShift
	valid      = 1 << 9
	metaMask   = 0xff << 1
)

// Cache is a single set-associative cache. Not safe for concurrent use.
//
// Set s owns slots [s×Ways, (s+1)×Ways) of lines as a ring: from slot
// heads[s] on, wrapping, its lines sit in recency order, most recently
// used first. A set fills from its last slot down, so until it is full
// its lines are the slots [heads[s], Ways).
type Cache struct {
	cfg      Config
	lines    []uint64
	heads    []int32
	ways     int
	nsets    int
	setMask  uint64
	setBits  uint // precomputed popcount(setMask): the tag shift
	lineBits uint
	stats    Stats
	ev       Eviction // scratch returned by Access/Fill
}

// New builds a cache; it panics on invalid configuration (a setup bug).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &Cache{
		cfg:     cfg,
		lines:   make([]uint64, nsets*cfg.Ways),
		heads:   make([]int32, nsets),
		ways:    cfg.Ways,
		nsets:   nsets,
		setMask: uint64(nsets - 1),
	}
	c.setBits = uint(bits.OnesCount64(c.setMask))
	c.lineBits = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	return c
}

// Config returns the construction configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the number of sets (diagnostic).
func (c *Cache) Sets() int { return c.nsets }

// find locates a's line: its set, its tag, the set's first slot, and
// the line's slot in the set (-1 when absent).
func (c *Cache) find(a mem.Addr) (set, tag uint64, base, pos int) {
	l := uint64(a) >> c.lineBits
	set, tag = l&c.setMask, l>>c.setBits
	base = int(set) * c.ways
	for i, w := range c.lines[base : base+c.ways] {
		if w>>tagShift == tag && w&valid != 0 {
			return set, tag, base, i
		}
	}
	return set, tag, base, -1
}

// Lookup reports whether a's line is present without changing any state.
func (c *Cache) Lookup(a mem.Addr) bool {
	_, _, _, pos := c.find(a)
	return pos >= 0
}

// Access performs a demand read or write with allocate-on-miss. It
// returns whether the access hit, and (on a miss that displaced a dirty
// line) the eviction the caller must write back. meta is stored on the
// line on fill and on write (carrying e.g. the page-size bit downstream).
// A hit moves the line to the front of its set.
func (c *Cache) Access(a mem.Addr, write bool, meta uint8) (hit bool, ev *Eviction) {
	c.stats.Accesses++
	set, tag, base, pos := c.find(a)
	if pos < 0 {
		c.stats.Misses++
		return false, c.insert(set, tag, base, write, meta)
	}
	w := c.lines[base+pos]
	if write {
		w = tag<<tagShift | valid | uint64(meta)<<1 | 1
	}
	// Move the line to the ring's front with one copy: the lines
	// between the head and it shift back a slot, or, when the ring
	// wraps between them (a full set), the lines behind it shift
	// forward and the slot before the head becomes the head.
	if h := int(c.heads[set]); pos >= h {
		copy(c.lines[base+h+1:base+pos+1], c.lines[base+h:base+pos])
		c.lines[base+h] = w
	} else {
		copy(c.lines[base+pos:base+h-1], c.lines[base+pos+1:base+h])
		c.lines[base+h-1] = w
		c.heads[set]--
	}
	return true, nil
}

// Fill inserts a's line without counting a demand access: the path of
// every L2 victim into the L3. A present line keeps its position, ORs
// in dirty and takes the new meta.
func (c *Cache) Fill(a mem.Addr, dirty bool, meta uint8) *Eviction {
	set, tag, base, pos := c.find(a)
	if pos < 0 {
		return c.insert(set, tag, base, dirty, meta)
	}
	w := &c.lines[base+pos]
	*w = *w&^metaMask | uint64(meta)<<1
	if dirty {
		*w |= 1
	}
	return nil
}

// insert puts tag at the front of set (first slot base), displacing the
// least recently used line of a full set, and returns the displaced
// line if it was dirty. It panics on a tag wider than maxTagBits,
// which the packed word would silently truncate.
func (c *Cache) insert(set, tag uint64, base int, dirty bool, meta uint8) *Eviction {
	if tag>>maxTagBits != 0 {
		panic(fmt.Sprintf("cache %q: tag %#x exceeds %d bits", c.cfg.Name, tag, maxTagBits))
	}
	// The new line takes the slot before the head: free in a set that
	// is not full, the LRU tail in one that is.
	h := int(c.heads[set]) - 1
	if h < 0 {
		h += c.ways
	}
	var ev *Eviction
	if v := c.lines[base+h]; v&1 != 0 {
		c.ev = Eviction{Addr: c.addrOf(set, v>>tagShift), Dirty: true, Meta: uint8(v >> 1)}
		ev = &c.ev
	}
	c.lines[base+h] = tag<<tagShift | valid | uint64(meta)<<1
	if dirty {
		c.lines[base+h] |= 1
	}
	c.heads[set] = int32(h)
	return ev
}

func (c *Cache) addrOf(set uint64, tag uint64) mem.Addr {
	return mem.Addr((tag<<c.setBits | set) << c.lineBits)
}

// Occupancy returns the number of valid lines (diagnostic, tests).
func (c *Cache) Occupancy() int {
	n := 0
	for _, w := range c.lines {
		if w&valid != 0 {
			n++
		}
	}
	return n
}
