// Package mc defines the memory-controller-side contract between the
// simulator and a DRAM-cache scheme, plus small helpers (miss-rate and
// footprint trackers) shared by several schemes.
//
// On every LLC miss or dirty eviction the simulator hands the request to
// the configured Scheme. The scheme updates its own state (tags, page
// mappings, frequency counters, tag buffers...) and answers with the
// physical DRAM operations to perform, grouped into dependency stages,
// plus any software costs (PTE update routines, TLB shootdowns, HMA
// epochs) the simulator must charge to cores.
package mc

import (
	"banshee/internal/mem"
	"banshee/internal/stats"
)

// SWCost is a software routine charged by the timing model.
type SWCost struct {
	// InitiatorCycles stall the core whose request triggered the
	// routine: e.g. Banshee's PTE-update routine plus shootdown
	// initiation.
	InitiatorCycles uint64
	// AllCoresCycles stall every other core that has not finished, each
	// at its next scheduling point; the requesting core is not charged
	// them. E.g. the shootdown slave cost, or an HMA remap epoch.
	AllCoresCycles uint64
}

// Result is a scheme's answer for one request.
//
// Ownership: Ops and SW may alias a scratch buffer owned by the scheme,
// reused on the next Access call — this is what makes the steady-state
// access path allocation-free. Callers must consume (or copy) a Result
// before calling Access on the same scheme again, and must not retain
// its slices. The simulator's execute path and all tests obey this.
type Result struct {
	// Hit reports whether the demanded data was served by the
	// in-package DRAM (counts toward DRAM-cache hit rate; ignored for
	// evictions).
	Hit bool
	// Ops are the DRAM transactions to perform (see mem.Op for stage
	// semantics). Order within a stage is preserved.
	Ops []mem.Op
	// SW lists software costs triggered by this request.
	SW []SWCost
}

// Scheme is a DRAM-cache design under evaluation.
type Scheme interface {
	// Name identifies the scheme in reports ("Banshee", "Alloy 0.1"...).
	Name() string
	// Access handles one LLC miss (demand) or LLC dirty eviction
	// (req.Eviction). Implementations must be deterministic given their
	// construction seed. The returned Result is valid only until the
	// next Access call (see Result's ownership note).
	Access(req mem.Request) Result
	// FillStats adds the scheme's internal running totals (remaps,
	// flushes, ...) into s, a copy of the simulator's cumulative
	// counters. It runs at every mark — warmup end, each epoch sample,
	// each snapshot and the final window — and a window is the
	// difference of two marks, so it may only add running totals and
	// must never reset them.
	FillStats(s *stats.Sim)
}

// missRateWindow is the number of accesses MissRateTracker observes
// before its estimate snaps to the window's rate.
const missRateWindow = 8192

// MissRateTracker maintains the "recent miss rate" Banshee's adaptive
// sampling multiplies into its sample rate (§4.2.1). It is a windowed
// estimator: every missRateWindow accesses the rate snaps to the
// window's observed rate. It starts at 1.0 so a cold cache samples
// aggressively.
type MissRateTracker struct {
	accesses uint64
	misses   uint64
	rate     float64
}

// NewMissRateTracker returns a cold tracker.
func NewMissRateTracker() *MissRateTracker {
	return &MissRateTracker{rate: 1.0}
}

// Observe records one access outcome.
func (t *MissRateTracker) Observe(miss bool) {
	t.accesses++
	if miss {
		t.misses++
	}
	if t.accesses >= missRateWindow {
		t.rate = float64(t.misses) / float64(t.accesses)
		t.accesses, t.misses = 0, 0
	}
}

// Rate returns the current estimate in [0,1].
func (t *MissRateTracker) Rate() float64 { return t.rate }

// FootprintTracker implements the idealized footprint predictor the
// paper grants Unison and TDC (§5.1.1): the average number of lines
// touched per page generation, managed at 4-line granularity. The
// simulator records the touched-line count of each evicted page; the
// predictor exposes the running average rounded up to a multiple of 4.
type FootprintTracker struct {
	avg  float64
	seen bool
}

// footprintDecay is the predictor's EWMA weight on each new page.
const footprintDecay = 0.05

// Record notes that an evicted page had `lines` touched lines.
func (f *FootprintTracker) Record(lines int) {
	d := float64(footprintDecay) // a variable, so 1-d rounds in float64
	if !f.seen {
		f.avg = float64(lines)
		f.seen = true
		return
	}
	// Each product is rounded before the sum, so no FMA forms.
	f.avg = float64((1-d)*f.avg) + float64(d*float64(lines))
}

// Lines returns the predicted footprint in lines, rounded up to 4-line
// granularity and clamped to [4, LinesPerPage]. Before any observation
// it returns 16 (a quarter page), a neutral prior.
func (f *FootprintTracker) Lines() int {
	if !f.seen {
		return 16
	}
	n := int(f.avg)
	if float64(n) < f.avg {
		n++
	}
	n = (n + 3) &^ 3
	if n < 4 {
		n = 4
	}
	if n > mem.LinesPerPage {
		n = mem.LinesPerPage
	}
	return n
}

// Touched is a 64-bit per-page touched/dirty line bitmap helper.
type Touched uint64

// Set marks line index i (0..63).
func (t *Touched) Set(i int) { *t |= 1 << uint(i&63) }

// Get reports whether line index i is marked.
func (t Touched) Get(i int) bool { return t&(1<<uint(i&63)) != 0 }

// Count returns the number of marked lines.
func (t Touched) Count() int {
	n := 0
	for x := uint64(t); x != 0; x &= x - 1 {
		n++
	}
	return n
}
