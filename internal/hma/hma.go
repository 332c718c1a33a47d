// Package hma implements the software-managed Heterogeneous Memory
// Architecture baseline [Meswani et al., HPCA'15] described in §2.1.2:
// periodically the OS ranks pages by access count, moves hot pages into
// the in-package DRAM and cold pages out, updates all PTEs, flushes all
// TLBs, and scrubs remapped pages from on-chip caches. Because the
// routine stops every program, it can only run at coarse epochs, so the
// policy cannot track fine-grained temporal locality.
//
// Epochs here are triggered by access count (a proxy for wall-clock
// epochs at the simulator's scale); the move cost is charged to all
// cores through mc.SWCost, exactly the "performance hiccup" the paper
// attributes to HMA.
package hma

import (
	"fmt"
	"sort"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// The remap routine's software cost, charged as mc.SWCost.AllCoresCycles:
// it stalls every other unfinished core, but not the core whose access
// ended the epoch.
const (
	fixedEpochCycles  = 50000 // fixed routine overhead per epoch
	perPageMoveCycles = 1500  // per migrated page (copy + PTE rewrite)
)

// Config parameterizes HMA.
type Config struct {
	CapacityBytes int
	// EpochAccesses is the number of MC accesses between remap epochs.
	EpochAccesses uint64
}

// DefaultConfig fills unset fields with reasonable defaults.
func DefaultConfig(capacityBytes int) Config {
	return Config{CapacityBytes: capacityBytes, EpochAccesses: 1 << 18}
}

type resident struct {
	dirty bool
}

// HMA is the scheme instance. Not safe for concurrent use.
//
// Residency and the per-epoch access counts are flat open-addressed
// tables: the per-access path (one residency probe, one counter
// increment) touches contiguous arrays, and the epoch routine iterates
// them in a deterministically sorted order — the old builtin-map
// version emitted move traffic in random map order, which only stayed
// reproducible because the move ops are timing-order-insensitive.
type HMA struct {
	cfg      Config
	capacity int // pages
	cached   util.Flat64[*resident]
	counts   util.Flat64[uint64] // epoch access counts
	accesses uint64

	// ops and sw are the scratch buffers reused by every Access (see
	// the ownership note on mc.Result).
	ops []mem.Op
	sw  []mc.SWCost

	hits, misses uint64
	epochs       uint64
	moves        uint64
}

// New builds an HMA instance.
func New(cfg Config) *HMA {
	cap := cfg.CapacityBytes / mem.PageBytes
	if cap <= 0 {
		panic(fmt.Sprintf("hma: capacity %d smaller than one page", cfg.CapacityBytes))
	}
	if cfg.EpochAccesses == 0 {
		panic("hma: EpochAccesses must be positive")
	}
	return &HMA{
		cfg:      cfg,
		capacity: cap,
		cached:   *util.NewFlat64[*resident](cap),
	}
}

// Name implements mc.Scheme.
func (h *HMA) Name() string { return "HMA" }

// Access implements mc.Scheme.
func (h *HMA) Access(req mem.Request) mc.Result {
	h.ops = h.ops[:0]
	h.sw = h.sw[:0]
	addr := mem.LineAddr(req.Addr)
	page := mem.PageNum(addr)
	r, _ := h.cached.Get(page)

	if req.Eviction {
		if r != nil {
			r.dirty = true
			h.ops = append(h.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData})
			return mc.Result{Hit: true, Ops: h.ops}
		}
		h.ops = append(h.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement})
		return mc.Result{Hit: false, Ops: h.ops}
	}

	*h.counts.Ptr(page)++
	h.accesses++
	hit := r != nil
	if hit {
		h.hits++
		h.ops = append(h.ops, mem.Op{Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassHitData, Stage: 0, Critical: true})
	} else {
		// Mapping is in the PTE: the miss goes straight off-package with
		// no probe traffic (Table 1: miss traffic 0 B extra).
		h.misses++
		h.ops = append(h.ops, mem.Op{Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Class: mem.ClassMissData, Stage: 0, Critical: true})
	}
	if h.accesses >= h.cfg.EpochAccesses {
		h.accesses = 0
		h.sw = append(h.sw, h.epoch())
	}
	return mc.Result{Hit: hit, Ops: h.ops, SW: h.sw}
}

// epoch runs the software remap: rank pages by epoch count, make the top
// `capacity` resident, move the deltas (appended to h.ops), and charge
// the stop-the-world cost. Epochs are rare (every EpochAccesses), so
// their ranking allocations don't affect the steady-state access path.
func (h *HMA) epoch() mc.SWCost {
	h.epochs++
	type pc struct {
		page  uint64
		count uint64
	}
	ranked := make([]pc, 0, h.counts.Len())
	h.counts.Range(func(p, c uint64) bool {
		ranked = append(ranked, pc{p, c})
		return true
	})
	isCached := func(p uint64) bool {
		r, _ := h.cached.Get(p)
		return r != nil
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		// Tie-break: keep currently cached pages (hysteresis), then by
		// page number for determinism.
		ci, cj := isCached(ranked[i].page), isCached(ranked[j].page)
		if ci != cj {
			return ci
		}
		return ranked[i].page < ranked[j].page
	})
	want := make(map[uint64]bool, h.capacity)
	wantOrder := make([]uint64, 0, h.capacity) // rank order, for move-ins
	for i := 0; i < len(ranked) && i < h.capacity; i++ {
		// Only pages with at least two epoch touches are worth a move.
		if ranked[i].count < 2 && !isCached(ranked[i].page) {
			continue
		}
		want[ranked[i].page] = true
		wantOrder = append(wantOrder, ranked[i].page)
	}

	// Move-outs in ascending page order, move-ins in rank order: both
	// passes iterate deterministic sequences, not map order.
	evict := make([]uint64, 0, h.cached.Len())
	h.cached.Range(func(p uint64, _ *resident) bool {
		if !want[p] {
			evict = append(evict, p)
		}
		return true
	})
	sort.Slice(evict, func(i, j int) bool { return evict[i] < evict[j] })

	moves := uint64(0)
	for _, p := range evict {
		r, _ := h.cached.Get(p)
		// Move out; dirty pages stream back to off-package memory.
		if r.dirty {
			a := mem.PageBase(p)
			h.ops = append(h.ops,
				mem.Op{Target: mem.InPackage, Addr: a, Bytes: mem.PageBytes, Class: mem.ClassReplacement},
				mem.Op{Target: mem.OffPackage, Addr: a, Bytes: mem.PageBytes, Write: true, Class: mem.ClassReplacement},
			)
		}
		h.cached.Delete(p)
		moves++
	}
	for _, p := range wantOrder {
		if isCached(p) {
			continue
		}
		a := mem.PageBase(p)
		h.ops = append(h.ops,
			mem.Op{Target: mem.OffPackage, Addr: a, Bytes: mem.PageBytes, Class: mem.ClassReplacement},
			mem.Op{Target: mem.InPackage, Addr: a, Bytes: mem.PageBytes, Write: true, Class: mem.ClassReplacement},
		)
		h.cached.Put(p, &resident{})
		moves++
	}
	h.moves += moves
	// Epoch counters reset: HMA only sees per-epoch history.
	h.counts.Clear()
	return mc.SWCost{
		AllCoresCycles: fixedEpochCycles + moves*perPageMoveCycles,
	}
}

// FillStats implements mc.Scheme.
func (h *HMA) FillStats(s *stats.Sim) {
	s.Remaps += h.moves
	s.TLBShootdowns += h.epochs // every epoch flushes all TLBs
}

// Resident returns the number of cached pages (diagnostic, tests).
func (h *HMA) Resident() int { return h.cached.Len() }

// Epochs returns how many remap epochs have run (diagnostic, tests).
func (h *HMA) Epochs() uint64 { return h.epochs }
