// Package stats collects and reports the measurements the paper's
// evaluation is built from: cycle counts, DRAM traffic broken down by
// class (Fig. 5/6/9), DRAM-cache hit/miss counts (MPKI, miss rate), and
// scheme-internal events (tag-buffer flushes, page remaps, TLB
// shootdowns). It also provides the tabular formatting used by
// cmd/experiments to print paper-style tables.
package stats

import (
	"fmt"
	"math"
	"strings"

	"banshee/internal/mem"
)

// Traffic accumulates DRAM bytes by traffic class for one DRAM kind.
type Traffic struct {
	Bytes [mem.ClassCount]uint64
}

// Add accounts n bytes of class c.
func (t *Traffic) Add(c mem.Class, n uint64) { t.Bytes[c] += n }

// Total returns the sum over all classes.
func (t *Traffic) Total() uint64 {
	var s uint64
	for _, b := range t.Bytes {
		s += b
	}
	return s
}

// Sim is the full set of measurements from one simulation run.
type Sim struct {
	Workload string
	Scheme   string

	Instructions uint64
	Cycles       uint64

	// SRAM hierarchy.
	L1Accesses, L1Misses   uint64
	L2Accesses, L2Misses   uint64
	LLCAccesses, LLCMisses uint64
	LLCEvictions           uint64 // dirty write-backs leaving the LLC

	// DRAM cache behavior (of LLC misses).
	DCHits, DCMisses uint64

	// DRAM traffic.
	InPkg  Traffic
	OffPkg Traffic

	// Latency diagnostics: sum of critical-path completion minus issue
	// time over demand LLC misses (DRAM cache hit or miss), for average
	// memory latency reporting.
	MissLatSum   uint64
	MissLatCount uint64

	// Scheme-internal events.
	Remaps           uint64 // page (or line) replacements into the DRAM cache
	TagProbes        uint64 // tag reads for mapping-unknown requests
	TagBufferFlushes uint64 // PTE/TLB batch-update rounds (Banshee)
	TLBShootdowns    uint64
	SWStallCycles    uint64 // cycles lost to software routines (HMA, Banshee flushes)
	CounterSamples   uint64 // sampled metadata accesses (Banshee FBR)
	Prefetches       uint64 // hardware prefetch requests issued to the MC
}

// AvgMissLat returns the mean critical-path latency of LLC misses.
func (s *Sim) AvgMissLat() float64 {
	if s.MissLatCount == 0 {
		return 0
	}
	return float64(s.MissLatSum) / float64(s.MissLatCount)
}

// IPC returns instructions per cycle over all cores combined.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI returns DRAM-cache misses per kilo-instruction (the red dots of
// Fig. 4).
func (s *Sim) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.DCMisses) / float64(s.Instructions) * 1000
}

// MissRate returns the DRAM-cache miss rate among LLC misses.
func (s *Sim) MissRate() float64 {
	tot := s.DCHits + s.DCMisses
	if tot == 0 {
		return 0
	}
	return float64(s.DCMisses) / float64(tot)
}

// DCHitRate returns the DRAM-cache hit rate among LLC misses,
// hits/(hits+misses); 0 when the window saw no DRAM-cache accesses.
func (s *Sim) DCHitRate() float64 {
	tot := s.DCHits + s.DCMisses
	if tot == 0 {
		return 0
	}
	return float64(s.DCHits) / float64(tot)
}

// InPkgBPI returns in-package DRAM bytes per instruction (Fig. 5 y-axis).
func (s *Sim) InPkgBPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.InPkg.Total()) / float64(s.Instructions)
}

// OffPkgBPI returns off-package DRAM bytes per instruction (Fig. 6 y-axis).
func (s *Sim) OffPkgBPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.OffPkg.Total()) / float64(s.Instructions)
}

// ClassBPI returns bytes-per-instruction of one in-package traffic class.
func (s *Sim) ClassBPI(c mem.Class) float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.InPkg.Bytes[c]) / float64(s.Instructions)
}

// Speedup returns the runtime ratio base/s: >1 means s is faster.
func Speedup(s, base *Sim) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(s.Cycles)
}

// GeoMean returns the geometric mean of xs, ignoring non-positive values.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// Table formats experiment results in aligned columns, in the spirit of
// the paper's tables. Rows print in insertion order.
type Table struct {
	Title   string
	columns []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, columns: columns}
}

// AddRow appends a row; cells beyond len(columns) are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.columns) {
		cells = cells[:len(t.columns)]
	}
	row := make([]string, len(t.columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.columns))
	for i, c := range t.columns {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	total := len(t.columns) - 1
	for _, w := range width {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
