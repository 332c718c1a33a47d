// Package cameo implements a CAMEO-style two-level memory organization
// [Chou et al., MICRO'14], one of the related designs the paper
// positions against (§6): the in-package DRAM is *part of main memory*
// (capacity, not a copy) managed at cache-line granularity. Every line
// belongs to a congruence group that shares one in-package slot; on an
// access to a line currently living off-package, the line is swapped
// with the group's current in-package occupant. A Line Location Table
// (LLT) tracks which group member holds the slot; as in CAMEO, the LLT
// lives with the data in DRAM, costing a metadata burst per miss.
//
// The paper's critique — such designs optimize latency but pay
// significant traffic for swaps and location lookups — is directly
// visible in this model's Replacement and Tag traffic.
package cameo

import (
	"fmt"
	"math/bits"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
)

// Config sizes the in-package portion.
type Config struct {
	CapacityBytes int
}

const lltBytes = 32

// A slot records which congruence-group member occupies the in-package
// way in one 32-bit word: (tag+1)<<1 | dirty, where tag is the
// occupant's line number above the slot index, and 0 is a cold slot.
// MinCapacityBytes (2^12 slots) leaves a 48-bit address a tag below
// 2^maxTagBits, so tag+1 never wraps and an occupied slot is never 0.
const (
	MinCapacityBytes = 1 << 12 * mem.LineBytes
	maxTagBits       = 30
)

// slotKey packs a clean occupant's tag. It panics on a tag wider than
// maxTagBits, which the word cannot hold.
func slotKey(tag uint64) uint32 {
	if tag>>maxTagBits != 0 {
		panic(fmt.Sprintf("cameo: tag %#x exceeds %d bits", tag, maxTagBits))
	}
	return uint32(tag+1) << 1
}

// CAMEO is the scheme instance. Not safe for concurrent use.
type CAMEO struct {
	slots   []uint32
	mask    uint64
	setBits uint // log2(len(slots)): the tag shift

	// ops is the scratch buffer reused by every Access (see the
	// ownership note on mc.Result).
	ops []mem.Op

	swaps uint64
}

// New builds a CAMEO instance; capacity must give a power-of-two line
// count of at least MinCapacityBytes.
func New(cfg Config) *CAMEO {
	n := cfg.CapacityBytes / mem.LineBytes
	if cfg.CapacityBytes < MinCapacityBytes || n&(n-1) != 0 {
		panic(fmt.Sprintf("cameo: capacity %d must give a power-of-two line count of at least %d",
			cfg.CapacityBytes, MinCapacityBytes/mem.LineBytes))
	}
	return &CAMEO{slots: make([]uint32, n), mask: uint64(n - 1), setBits: uint(bits.TrailingZeros(uint(n)))}
}

// Name implements mc.Scheme.
func (c *CAMEO) Name() string { return "CAMEO" }

// Access implements mc.Scheme.
func (c *CAMEO) Access(req mem.Request) mc.Result {
	c.ops = c.ops[:0]
	addr := mem.LineAddr(req.Addr)
	line := mem.LineNum(addr)
	set, tag := line&c.mask, line>>c.setBits
	s := &c.slots[set]

	// A cold slot (0) holds no line: the identity member notionally
	// lives there, and any other group member is off-package.
	resident := uint64(*s>>1) == tag+1

	if req.Eviction {
		if resident {
			*s |= 1
			c.ops = append(c.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData})
			return mc.Result{Hit: true, Ops: c.ops}
		}
		c.ops = append(c.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement})
		return mc.Result{Hit: false, Ops: c.ops}
	}

	if resident {
		// Hit: data plus the LLT entry read together (CAMEO co-locates
		// the LLT with the congruence group).
		c.ops = append(c.ops,
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassHitData, Stage: 0, Critical: true},
			mem.Op{Target: mem.InPackage, Addr: addr, Bytes: lltBytes, Class: mem.ClassTag, Stage: 0, Critical: true, Fused: true},
		)
		return mc.Result{Hit: true, Ops: c.ops}
	}

	// Miss: consult the LLT (in-package, critical), fetch the line from
	// off-package, then swap it with the current occupant. The swap is
	// CAMEO's defining traffic: occupant moves out, new line moves in,
	// LLT updated.
	key := slotKey(tag)
	c.swaps++
	c.ops = append(c.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: lltBytes, Class: mem.ClassTag, Stage: 0, Critical: true},
		mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 1, Critical: true},
	)
	if *s != 0 {
		old := mem.LineBase(uint64(*s>>1-1)<<c.setBits | set)
		c.ops = append(c.ops,
			mem.Op{Target: mem.InPackage, Addr: old, Bytes: mem.LineBytes, Class: mem.ClassReplacement, Stage: 1},
			mem.Op{Target: mem.OffPackage, Addr: old, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
		)
	}
	c.ops = append(c.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: lltBytes, Write: true, Class: mem.ClassTag, Stage: 1, Fused: true},
	)
	*s = key
	return mc.Result{Hit: false, Ops: c.ops}
}

// FillStats implements mc.Scheme.
func (c *CAMEO) FillStats(s *stats.Sim) {
	s.Remaps += c.swaps
}

// Resident reports whether the line currently occupies its slot (tests).
func (c *CAMEO) Resident(line uint64) bool {
	return uint64(c.slots[line&c.mask]>>1) == line>>c.setBits+1
}
