// Package alloy implements the Alloy Cache baseline [Qureshi & Loh,
// MICRO'12] with the BEAR bandwidth optimizations [Chou et al., ISCA'15]
// as configured in the paper's evaluation (§5.1.1):
//
//   - direct-mapped, cache-line (64 B) granularity, tags stored alongside
//     data in the in-package DRAM (a tag-and-data, "TAD", unit);
//   - every demand access reads tag+data together: 96 B on the DRAM bus
//     (64 B data + one 32 B burst carrying the tag);
//   - the speculative parallel off-package probe of the original paper is
//     disabled (it wastes scarce off-package bandwidth, §2.1.1) — misses
//     serialize: in-package probe, then off-package fetch;
//   - stochastic replacement à la BEAR: a miss fills the cache only with
//     probability FillProb (1.0 = "Alloy 1", 0.1 = "Alloy 0.1");
//   - BEAR's write-probe optimization: LLC dirty evictions probe with a
//     32 B tag read instead of a full TAD read.
package alloy

import (
	"fmt"
	"math/bits"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// Config sizes the Alloy cache.
type Config struct {
	CapacityBytes int
	FillProb      float64 // stochastic replacement probability
	Seed          uint64
}

// tagBytes is the DRAM burst carrying a TAD's tag: the minimum 32 B
// transfer of the HBM-like link (§2).
const tagBytes = 32

// A line is one word: (tag+1)<<1 | dirty, and 0 is a free line. A
// tag is below 2^48, so tag+1 never wraps and a resident line is never
// 0.
func lineKey(tag uint64) uint64 { return (tag + 1) << 1 }

// Alloy is the scheme instance. Not safe for concurrent use.
type Alloy struct {
	name     string
	sets     []uint64 // one line word per direct-mapped set
	mask     uint64
	tagShift uint // precomputed popcount(mask): the tag shift
	rng      *util.RNG
	fillP    float64

	// ops is the scratch buffer reused by every Access (see the
	// ownership note on mc.Result).
	ops []mem.Op

	fills     uint64
	tagProbes uint64
}

// New builds an Alloy cache. Capacity must be a positive multiple of the
// line size; it panics otherwise (setup bug).
func New(cfg Config) *Alloy {
	n := cfg.CapacityBytes / mem.LineBytes
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("alloy: capacity %d must give a power-of-two line count, got %d", cfg.CapacityBytes, n))
	}
	if cfg.FillProb <= 0 || cfg.FillProb > 1 {
		panic(fmt.Sprintf("alloy: fill probability %v out of (0,1]", cfg.FillProb))
	}
	name := "Alloy 1"
	if cfg.FillProb != 1 {
		name = fmt.Sprintf("Alloy %g", cfg.FillProb)
	}
	return &Alloy{
		name:     name,
		sets:     make([]uint64, n),
		mask:     uint64(n - 1),
		tagShift: uint(bits.OnesCount64(uint64(n - 1))),
		rng:      util.NewRNG(cfg.Seed ^ 0xA110C),
		fillP:    cfg.FillProb,
	}
}

// Name implements mc.Scheme.
func (a *Alloy) Name() string { return a.name }

func (a *Alloy) slot(addr mem.Addr) (*uint64, uint64) {
	ln := mem.LineNum(addr)
	return &a.sets[ln&a.mask], ln >> a.tagShift
}

// Access implements mc.Scheme.
func (a *Alloy) Access(req mem.Request) mc.Result {
	a.ops = a.ops[:0]
	addr := mem.LineAddr(req.Addr)
	slot, tag := a.slot(addr)
	if req.Eviction {
		return a.eviction(addr, slot, tag)
	}

	// Demand access: one TAD read (tag 32 B + data 64 B) on the critical
	// path. On a hit the 64 B is useful (HitData); on a miss it was
	// speculative (MissData), and the demand line comes from off-package
	// in the next stage.
	if *slot>>1 == tag+1 {
		a.ops = append(a.ops,
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassHitData, Stage: 0, Critical: true},
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0, Critical: true, Fused: true},
		)
		return mc.Result{Hit: true, Ops: a.ops}
	}
	ops := append(a.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 0, Critical: true},
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0, Critical: true, Fused: true},
		mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 1, Critical: true},
	)
	// Stochastic fill (BEAR): replace only with probability fillP.
	if a.rng.Bool(a.fillP) {
		a.fills++
		if *slot&1 != 0 {
			// The victim's data was already read by the TAD probe; it
			// only needs the off-package write-back.
			victim := a.victimAddr(addr, *slot>>1-1)
			ops = append(ops, mem.Op{Target: mem.OffPackage, Addr: victim, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1})
		}
		// Fill writes data + updated tag.
		ops = append(ops,
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Write: true, Class: mem.ClassTag, Stage: 1, Fused: true},
		)
		*slot = lineKey(tag)
	}
	a.ops = ops
	return mc.Result{Hit: false, Ops: ops}
}

// victimAddr reconstructs the address of the line currently in the slot
// addressed by addr (same set index, the slot's own tag).
func (a *Alloy) victimAddr(addr mem.Addr, victimTag uint64) mem.Addr {
	set := mem.LineNum(addr) & a.mask
	return mem.LineBase(victimTag<<a.tagShift | set)
}

// eviction handles an LLC dirty write-back: BEAR write probe (32 B tag
// read), then the 64 B data write to whichever DRAM owns the line.
func (a *Alloy) eviction(addr mem.Addr, slot *uint64, tag uint64) mc.Result {
	a.tagProbes++
	ops := append(a.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: tagBytes, Class: mem.ClassTag, Stage: 0})
	hit := *slot>>1 == tag+1
	if hit {
		*slot |= 1
		ops = append(ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData, Stage: 1})
	} else {
		ops = append(ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1})
	}
	a.ops = ops
	return mc.Result{Hit: hit, Ops: ops}
}

// FillStats implements mc.Scheme.
func (a *Alloy) FillStats(s *stats.Sim) {
	s.Remaps += a.fills
	s.TagProbes += a.tagProbes
}

// Occupancy returns the number of valid lines (diagnostic, tests).
func (a *Alloy) Occupancy() int {
	n := 0
	for _, w := range a.sets {
		if w != 0 {
			n++
		}
	}
	return n
}
