// Package unison implements the Unison Cache baseline [Jevdjic et al.,
// MICRO'14] as idealized in the paper's evaluation (§5.1.1):
//
//   - page (4 KB) granularity, set-associative (4-way), LRU replacement,
//     tags embedded in the in-package DRAM;
//   - perfect way prediction: a demand access reads the set's tags (32 B)
//     plus the data line from the predicted way, so a hit costs ≥128 B
//     (tag read + 64 B data + tag/LRU update) and a miss ≥96 B
//     (speculative data + tag read) — Table 1;
//   - replacement on every miss, moderated by a perfect footprint
//     predictor managed at 4-line granularity: a fill moves only the
//     page's predicted footprint, and the predictor is charged nothing.
package unison

import (
	"fmt"
	"math/bits"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
)

// Config sizes the Unison cache.
type Config struct {
	CapacityBytes int
}

const (
	assoc    = 4 // ways per set
	tagBytes = 32
)

type way struct {
	tag     uint64
	valid   bool
	stamp   uint64
	touched mc.Touched
	dirty   mc.Touched
}

// Unison is the scheme instance. Not safe for concurrent use.
type Unison struct {
	ways      []way // set×assoc+way
	mask      uint64
	tagShift  uint // precomputed popcount(mask): the tag shift
	tick      uint64
	footprint mc.FootprintTracker

	// ops is the scratch buffer reused by every Access (see the
	// ownership note on mc.Result).
	ops []mem.Op

	fills     uint64
	tagProbes uint64
}

// New builds a Unison cache; it panics on a non-power-of-two set count
// (setup bug).
func New(cfg Config) *Unison {
	nsets := cfg.CapacityBytes / mem.PageBytes / assoc
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("unison: capacity %d with %d ways gives non-power-of-two set count %d", cfg.CapacityBytes, assoc, nsets))
	}
	return &Unison{
		ways:     make([]way, nsets*assoc),
		mask:     uint64(nsets - 1),
		tagShift: uint(bits.OnesCount64(uint64(nsets - 1))),
	}
}

// Name implements mc.Scheme.
func (u *Unison) Name() string { return "Unison" }

func (u *Unison) lookup(page uint64) (set []way, idx int, tag uint64) {
	base := int(page&u.mask) * assoc
	set = u.ways[base : base+assoc]
	tag = page >> u.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, i, tag
		}
	}
	return set, -1, tag
}

// Access implements mc.Scheme.
func (u *Unison) Access(req mem.Request) mc.Result {
	u.ops = u.ops[:0]
	u.tick++
	addr := mem.LineAddr(req.Addr)
	page := mem.PageNum(addr)
	set, idx, tag := u.lookup(page)
	if req.Eviction {
		return u.eviction(addr, set, idx)
	}

	if idx >= 0 {
		// Page hit with perfect way prediction: tag read + data read on
		// the critical path, LRU/tag update in the background.
		set[idx].stamp = u.tick
		set[idx].touched.Set(mem.LineInPage(addr))
		u.ops = append(u.ops,
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassHitData, Stage: 0, Critical: true},
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0, Critical: true, Fused: true},
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Write: true, Class: mem.ClassTag, Stage: 1},
		)
		return mc.Result{Hit: true, Ops: u.ops}
	}

	// Miss: the predicted-way data read was speculative and wasted;
	// fetch the demand line off-package, then replace the LRU page.
	u.ops = append(u.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 0, Critical: true},
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0, Critical: true, Fused: true},
		mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 1, Critical: true},
	)
	u.replace(set, tag, addr)
	return mc.Result{Hit: false, Ops: u.ops}
}

// replace evicts the LRU way and fills the new page's predicted
// footprint, appending the background ops to u.ops.
func (u *Unison) replace(set []way, tag uint64, demand mem.Addr) {
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[victim].valid && set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		u.footprint.Record(v.touched.Count())
		if n := v.dirty.Count(); n > 0 {
			// Dirty lines stream out: in-package read + off-package write.
			victimAddr := u.wayAddr(demand, v.tag)
			u.ops = append(u.ops,
				mem.Op{Target: mem.InPackage, Addr: victimAddr, Bytes: n * mem.LineBytes, Class: mem.ClassReplacement, Stage: 1},
				mem.Op{Target: mem.OffPackage, Addr: victimAddr, Bytes: n * mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
			)
		}
	}
	// Fill the predicted footprint (the demand line itself is already
	// accounted as MissData; the predictor covers the rest).
	fp := u.footprint.Lines()
	fill := (fp - 1) * mem.LineBytes
	if fill > 0 {
		u.ops = append(u.ops, mem.Op{Target: mem.OffPackage, Addr: demand, Bytes: fill, Class: mem.ClassReplacement, Stage: 1})
	}
	u.ops = append(u.ops,
		mem.Op{Target: mem.InPackage, Addr: demand, Bytes: fp * mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
		mem.Op{Target: mem.InPackage, Addr: demand, Bytes: tagBytes, Write: true, Class: mem.ClassTag, Stage: 1, Fused: true},
	)
	u.fills++
	var t mc.Touched
	t.Set(mem.LineInPage(demand))
	*v = way{tag: tag, valid: true, stamp: u.tick, touched: t}
}

// wayAddr reconstructs a resident page's base address from its tag and
// the set implied by another address in the same set.
func (u *Unison) wayAddr(sameSet mem.Addr, tag uint64) mem.Addr {
	set := mem.PageNum(sameSet) & u.mask
	return mem.PageBase(tag<<u.tagShift | set)
}

// eviction handles an LLC dirty write-back: tag probe, then the data
// write to whichever DRAM owns the line.
func (u *Unison) eviction(addr mem.Addr, set []way, idx int) mc.Result {
	u.tagProbes++
	u.ops = append(u.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0})
	if idx >= 0 {
		li := mem.LineInPage(addr)
		set[idx].touched.Set(li)
		set[idx].dirty.Set(li)
		u.ops = append(u.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData, Stage: 1})
		return mc.Result{Hit: true, Ops: u.ops}
	}
	u.ops = append(u.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1})
	return mc.Result{Hit: false, Ops: u.ops}
}

// FillStats implements mc.Scheme.
func (u *Unison) FillStats(s *stats.Sim) {
	s.Remaps += u.fills
	s.TagProbes += u.tagProbes
}

// FootprintLines exposes the current footprint prediction (tests).
func (u *Unison) FootprintLines() int { return u.footprint.Lines() }
