// Package tdc implements the Tagless DRAM Cache baseline [Lee et al.,
// ISCA'15] in the idealized form the paper evaluates (§5.1.1):
//
//   - page mapping lives in PTEs/TLBs, so no tag traffic at all: a hit
//     moves exactly 64 B, a miss 64 B (Table 1);
//   - fully associative, FIFO replacement, replacement on *every* miss;
//   - a perfect footprint predictor (same idealization as Unison) limits
//     fill traffic to the lines a page generation will touch;
//   - TLB coherence is assumed free (zero-overhead hardware directory)
//     and the address-consistency problem is ignored, exactly as the
//     paper grants it;
//   - large pages are not cacheable (TDC disables them, §4.3) — the
//     simulator never routes 2 MB-page workloads to TDC.
package tdc

import (
	"fmt"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// Config sizes the TDC cache.
type Config struct {
	CapacityBytes int
}

type entry struct {
	touched mc.Touched
	dirty   mc.Touched
}

// TDC is the scheme instance. Not safe for concurrent use.
type TDC struct {
	capacity int // pages
	// pages is a flat open-addressed residency table (page → entry);
	// entries are stored by value, so an access is one probe with no
	// pointer chase, and the table never allocates once the cache is
	// full — victim slots are reclaimed for the newcomers.
	pages     util.Flat64[entry]
	fifo      []uint64 // ring buffer of resident pages in insertion order
	head      int
	footprint mc.FootprintTracker

	// memo short-circuits the residency probe for back-to-back accesses
	// to one page (streaming scans walk a page's lines consecutively).
	// The cached pointer is invalidated by any table mutation (insert),
	// which is the only thing that can move or retire a slot.
	memoPage uint64
	memoE    *entry

	// ops is the scratch buffer reused by every Access (see the
	// ownership note on mc.Result).
	ops []mem.Op

	hits, misses uint64
	fills        uint64
}

// New builds a TDC instance; capacity must hold at least one page.
func New(cfg Config) *TDC {
	cap := cfg.CapacityBytes / mem.PageBytes
	if cap <= 0 {
		panic(fmt.Sprintf("tdc: capacity %d smaller than one page", cfg.CapacityBytes))
	}
	return &TDC{
		capacity: cap,
		pages:    *util.NewFlat64[entry](cap),
		fifo:     make([]uint64, 0, cap),
	}
}

// Name implements mc.Scheme.
func (t *TDC) Name() string { return "TDC" }

// Access implements mc.Scheme.
func (t *TDC) Access(req mem.Request) mc.Result {
	t.ops = t.ops[:0]
	addr := mem.LineAddr(req.Addr)
	page := mem.PageNum(addr)
	e := t.memoE
	if e == nil || page != t.memoPage {
		e = t.pages.GetPtr(page)
		t.memoPage, t.memoE = page, e
	}
	li := mem.LineInPage(addr)

	if req.Eviction {
		// Mapping is known from PTEs/TLBs for free: no probe traffic.
		if e != nil {
			e.touched.Set(li)
			e.dirty.Set(li)
			t.ops = append(t.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData})
			return mc.Result{Hit: true, Ops: t.ops}
		}
		t.ops = append(t.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement})
		return mc.Result{Hit: false, Ops: t.ops}
	}

	if e != nil {
		t.hits++
		e.touched.Set(li)
		t.ops = append(t.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassHitData, Stage: 0, Critical: true})
		return mc.Result{Hit: true, Ops: t.ops}
	}

	// Miss: demand line from off-package, then replace on every miss.
	t.misses++
	t.ops = append(t.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 0, Critical: true})
	t.insert(page, addr)
	return mc.Result{Hit: false, Ops: t.ops}
}

// insert places a page, evicting the FIFO head if full, appending the
// background replacement ops to t.ops.
func (t *TDC) insert(page uint64, demand mem.Addr) {
	if len(t.fifo) >= t.capacity {
		victim := t.fifo[t.head]
		ve := t.pages.GetPtr(victim)
		t.footprint.Record(ve.touched.Count())
		if n := ve.dirty.Count(); n > 0 {
			va := mem.PageBase(victim)
			t.ops = append(t.ops,
				mem.Op{Target: mem.InPackage, Addr: va, Bytes: n * mem.LineBytes, Class: mem.ClassReplacement, Stage: 1},
				mem.Op{Target: mem.OffPackage, Addr: va, Bytes: n * mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1},
			)
		}
		t.pages.Delete(victim)
		t.fifo[t.head] = page
		t.head = (t.head + 1) % t.capacity
	} else {
		t.fifo = append(t.fifo, page)
	}
	fp := t.footprint.Lines()
	if fill := (fp - 1) * mem.LineBytes; fill > 0 {
		t.ops = append(t.ops, mem.Op{Target: mem.OffPackage, Addr: demand, Bytes: fill, Class: mem.ClassReplacement, Stage: 1})
	}
	t.ops = append(t.ops, mem.Op{Target: mem.InPackage, Addr: demand, Bytes: fp * mem.LineBytes, Write: true, Class: mem.ClassReplacement, Stage: 1})
	t.fills++
	var e entry
	e.touched.Set(mem.LineInPage(demand))
	t.pages.Put(page, e)
	t.memoE = nil // Put/Delete may have moved or retired the memo slot
}

// FillStats implements mc.Scheme.
func (t *TDC) FillStats(s *stats.Sim) {
	s.Remaps += t.fills
}

// Resident returns the number of cached pages (diagnostic, tests).
func (t *TDC) Resident() int { return t.pages.Len() }
