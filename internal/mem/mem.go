// Package mem defines the vocabulary shared by every layer of the
// simulator: physical addresses, cache-line and page geometry, memory
// requests, DRAM operations, and traffic classification. It deliberately
// contains no behavior beyond address arithmetic so that higher layers
// (caches, DRAM timing, cache schemes) can depend on it without cycles.
// A request carries no DRAM-cache mapping: each scheme keeps its own
// record of where a page lives.
package mem

import "fmt"

// Addr is a physical byte address. The simulated machine uses a 48-bit
// physical address space, matching the paper's tag-size arithmetic
// (48 - 16 set bits - 12 page-offset bits = 20-bit page tags).
type Addr uint64

// Fundamental geometry. These mirror Table 2 of the paper and are fixed:
// the DRAM-cache designs under study all assume 64 B lines and 4 KB pages,
// with 2 MB large pages as the extension studied in §4.3/§5.4.1.
const (
	LineBytes  = 64
	PageBytes  = 4096
	LargeBytes = 2 << 20 // 2 MB large page

	LineOffsetBits  = 6
	PageOffsetBits  = 12
	LargeOffsetBits = 21

	LinesPerPage      = PageBytes / LineBytes  // 64
	LinesPerLargePage = LargeBytes / LineBytes // 32768
	PagesPerLargePage = LargeBytes / PageBytes // 512

	AddrBits = 48
)

// LineNum returns the cache-line number of a.
func LineNum(a Addr) uint64 { return uint64(a) >> LineOffsetBits }

// LineAddr returns a rounded down to its line base.
func LineAddr(a Addr) Addr { return a &^ (LineBytes - 1) }

// PageNum returns the 4 KB page frame number of a.
func PageNum(a Addr) uint64 { return uint64(a) >> PageOffsetBits }

// PageAddr returns a rounded down to its 4 KB page base.
func PageAddr(a Addr) Addr { return a &^ (PageBytes - 1) }

// LargePageNum returns the 2 MB page frame number of a.
func LargePageNum(a Addr) uint64 { return uint64(a) >> LargeOffsetBits }

// LargePageAddr returns a rounded down to its 2 MB page base.
func LargePageAddr(a Addr) Addr { return a &^ (LargeBytes - 1) }

// LineInPage returns the index (0..63) of a's line within its 4 KB page.
func LineInPage(a Addr) int {
	return int((uint64(a) >> LineOffsetBits) & (LinesPerPage - 1))
}

// PageBase reconstructs a page base address from a frame number.
func PageBase(pageNum uint64) Addr { return Addr(pageNum << PageOffsetBits) }

// LineBase reconstructs a line base address from a line number.
func LineBase(lineNum uint64) Addr { return Addr(lineNum << LineOffsetBits) }

// PageSize identifies the translation granularity of a request, carried
// from the TLB so memory controllers can route large pages correctly
// (§4.3: a bit per cache line records page size for dirty evictions).
type PageSize uint8

const (
	Page4K PageSize = iota
	Page2M
)

// Bytes returns the page size in bytes.
func (s PageSize) Bytes() int {
	if s == Page2M {
		return LargeBytes
	}
	return PageBytes
}

// String implements fmt.Stringer.
func (s PageSize) String() string {
	if s == Page2M {
		return "2M"
	}
	return "4K"
}

// Request is a memory reference leaving the core (or an eviction leaving
// the LLC) on its way through the hierarchy.
type Request struct {
	Addr  Addr
	Write bool
	Core  int      // issuing core, -1 for evictions with no owner
	Size  PageSize // translation granularity (from TLB)
	// Eviction marks LLC write-backs: they never consulted a TLB (so
	// Banshee must probe for them, §3.3) and are off the core's
	// critical path.
	Eviction bool
}

func (r Request) String() string {
	op := "R"
	if r.Write {
		op = "W"
	}
	return fmt.Sprintf("%s@%#x core=%d", op, uint64(r.Addr), r.Core)
}

// Kind distinguishes the two DRAMs in the package.
type Kind uint8

const (
	InPackage  Kind = iota // the HBM-class DRAM cache
	OffPackage             // conventional DDR main memory
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == InPackage {
		return "in-package"
	}
	return "off-package"
}

// Class categorizes DRAM traffic for the paper's breakdowns
// (Fig. 5 uses HitData/MissData/Tag/Replacement; Fig. 9 adds Counter).
type Class uint8

const (
	ClassHitData     Class = iota // demand data moved on a DRAM-cache hit
	ClassMissData                 // demand/speculative data moved on a miss
	ClassTag                      // tag reads/updates and tag probes
	ClassCounter                  // frequency-counter (metadata) reads/updates
	ClassReplacement              // page/line fills and dirty evictions
	ClassCount                    // number of classes
)

var classNames = [ClassCount]string{
	"HitData", "MissData", "Tag", "Counter", "Replacement",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Classes lists all traffic classes in display order.
func Classes() []Class {
	return []Class{ClassHitData, ClassMissData, ClassTag, ClassCounter, ClassReplacement}
}

// Op is one physical DRAM transaction requested by a cache scheme in
// response to an LLC miss (or eviction). The memory controller times each
// op on the addressed channel/bank and accounts its bytes to Class.
//
// Ops are grouped into stages: all ops of stage N issue once every
// *critical* op of stage N-1 has completed. This expresses, e.g., Alloy's
// "read tag+data, then on a miss fetch off-package" serialization, while
// letting background ops (fills, writebacks, counter updates) overlap.
type Op struct {
	Target   Kind
	Addr     Addr // used for channel/bank/row mapping
	Bytes    int
	Write    bool
	Class    Class
	Stage    uint8
	Critical bool // contributes to the request's completion latency
	// Fused marks an op that rides the same DRAM burst train as the
	// preceding op in its stage (e.g. Alloy's tag+data "TAD" unit, or
	// Unison's tag read alongside the predicted way's data): it extends
	// that op's data transfer instead of issuing a new bank command.
	Fused bool
}

func (o Op) String() string {
	dir := "rd"
	if o.Write {
		dir = "wr"
	}
	crit := ""
	if o.Critical {
		crit = " crit"
	}
	return fmt.Sprintf("%s %s %dB %s s%d%s", o.Target, dir, o.Bytes, o.Class, o.Stage, crit)
}
