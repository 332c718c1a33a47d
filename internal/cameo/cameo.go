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

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
)

// Config sizes the in-package portion.
type Config struct {
	CapacityBytes int
}

const lltBytes = 32

// slot records which congruence-group member currently occupies the
// in-package way, by its group offset (0 = the identity resident).
type slot struct {
	occupant uint64 // line number of the resident
	valid    bool
	dirty    bool
}

// CAMEO is the scheme instance. Not safe for concurrent use.
type CAMEO struct {
	slots []slot
	mask  uint64

	// ops is the scratch buffer reused by every Access (see the
	// ownership note on mc.Result).
	ops []mem.Op

	swaps uint64
}

// New builds a CAMEO instance; capacity must give a power-of-two line
// count.
func New(cfg Config) *CAMEO {
	n := cfg.CapacityBytes / mem.LineBytes
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cameo: capacity %d must give a power-of-two line count", cfg.CapacityBytes))
	}
	return &CAMEO{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Name implements mc.Scheme.
func (c *CAMEO) Name() string { return "CAMEO" }

// Access implements mc.Scheme.
func (c *CAMEO) Access(req mem.Request) mc.Result {
	c.ops = c.ops[:0]
	addr := mem.LineAddr(req.Addr)
	line := mem.LineNum(addr)
	s := &c.slots[line&c.mask]

	resident := s.valid && s.occupant == line
	if !s.valid {
		// Cold slot: the identity member notionally lives here; any
		// other group member is off-package.
		resident = false
	}

	if req.Eviction {
		if resident {
			s.dirty = true
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
	c.swaps++
	c.ops = append(c.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: lltBytes, Class: mem.ClassTag, Stage: 0, Critical: true},
		mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 1, Critical: true},
	)
	if s.valid {
		old := mem.LineBase(s.occupant)
		c.ops = append(c.ops,
			mem.Op{Target: mem.InPackage, Addr: old, Bytes: mem.LineBytes, Class: mem.ClassReplacement, Stage: 1},
			mem.Op{Target: mem.OffPackage, Addr: old, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
		)
	}
	c.ops = append(c.ops,
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
		mem.Op{Target: mem.InPackage, Addr: addr, Bytes: lltBytes, Write: true, Class: mem.ClassTag, Stage: 1, Fused: true},
	)
	*s = slot{occupant: line, valid: true}
	return mc.Result{Hit: false, Ops: c.ops}
}

// FillStats implements mc.Scheme.
func (c *CAMEO) FillStats(s *stats.Sim) {
	s.Remaps += c.swaps
}

// Resident reports whether the line currently occupies its slot (tests).
func (c *CAMEO) Resident(line uint64) bool {
	s := c.slots[line&c.mask]
	return s.valid && s.occupant == line
}
