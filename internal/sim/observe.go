package sim

import (
	"time"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

// DefaultEpochEvery is the epoch sampling interval, in retired
// instructions, Observe uses when given 0: fine enough that the
// gauges move during a single job, coarse enough that sampling cost
// is noise.
const DefaultEpochEvery = 1 << 21

// Observe is how a run's lanes are observed — the one place every
// caller (the batch engine, sweepd's epoch capture, bansheesim) wires
// epoch sampling. It installs one epoch hook per lane, firing every
// `every` retired instructions (0 = DefaultEpochEvery), which passes
// each snapshot to every fn with the lane's index and, with reg
// non-nil, drives reg's live epoch gauges (MPKI, IPC, DRAM-cache hit
// rate, LLC accesses per wall-second, miss latency).
//
// The returned fold adds the given per-lane results, plus each lane's
// MSHR stalls, to reg's monotone totals — once: later calls, and epoch
// samples arriving after it, leave the registry alone. Call it only
// for results that are actually emitted, with exactly those results,
// so across a sweep the `banshee_sim_*_total` series equal the field
// sums of the executed results, retries and faults included; a failed
// or cancelled attempt that never folds leaves no residue. Mid-run
// the totals therefore trail the live window by at most one job; the
// epoch gauges are live. Many gangs may share one registry: it hands
// every one the same series, and each folds in only its own lanes.
//
// With reg nil and no fns Observe installs nothing, so the lanes keep
// batched replay; any hook disables it on its lane (System.OnEpoch).
// Call Observe before the gang runs, on the goroutine that runs it.
func (g *Gang) Observe(every uint64, reg *obs.Registry, fns ...func(lane int, s stats.Snapshot)) (fold func([]stats.Sim)) {
	if reg == nil && len(fns) == 0 {
		return func([]stats.Sim) {}
	}
	if every == 0 {
		every = DefaultEpochEvery
	}
	var m *simMetrics
	if reg != nil {
		m = newSimMetrics(reg)
	}
	folded := false
	for i, lane := range g.gs.lanes {
		lastWall := time.Now()
		lane.OnEpoch(every, func(s stats.Snapshot) {
			if m != nil && !folded {
				lastWall = m.sample(s, lastWall)
			}
			for _, fn := range fns {
				fn(i, s)
			}
		})
	}
	return func(sts []stats.Sim) {
		if m == nil || folded {
			return
		}
		folded = true
		for i, lane := range g.gs.lanes {
			m.fold(sts[i], lane)
		}
	}
}

// FoldRemote adds one lane-less result — a job attempt executed
// elsewhere, outside any in-process gang — to reg's totals, so they
// still equal the sums over emitted results. A nil reg is a no-op.
func FoldRemote(reg *obs.Registry, st stats.Sim) {
	if reg != nil {
		newSimMetrics(reg).fold(st, nil)
	}
}

// simMetrics is the simulation metric families on one registry.
type simMetrics struct {
	instructions *obs.Counter
	cycles       *obs.Counter
	llcAccesses  *obs.Counter
	llcMisses    *obs.Counter
	dcHits       *obs.Counter
	dcMisses     *obs.Counter
	inPkgBytes   *obs.Counter
	offPkgBytes  *obs.Counter
	mshrStalls   *obs.Counter
	mshrCycles   *obs.Counter
	epochs       *obs.Counter

	mpki       *obs.Gauge
	ipc        *obs.Gauge
	dcHitRate  *obs.Gauge
	accPerSec  *obs.Gauge
	avgMissLat *obs.Gauge
}

// newSimMetrics registers the simulation metric families on r.
// Registration is idempotent, so every caller built against the same
// registry shares the same series.
func newSimMetrics(r *obs.Registry) *simMetrics {
	return &simMetrics{
		instructions: r.Counter("banshee_sim_instructions_total", "instructions retired inside measurement windows of executed runs"),
		cycles:       r.Counter("banshee_sim_cycles_total", "simulated cycles inside measurement windows of executed runs"),
		llcAccesses:  r.Counter("banshee_sim_llc_accesses_total", "LLC accesses inside measurement windows of executed runs"),
		llcMisses:    r.Counter("banshee_sim_llc_misses_total", "LLC misses inside measurement windows of executed runs"),
		dcHits:       r.Counter("banshee_sim_dc_hits_total", "DRAM cache hits inside measurement windows of executed runs"),
		dcMisses:     r.Counter("banshee_sim_dc_misses_total", "DRAM cache misses inside measurement windows of executed runs"),
		inPkgBytes:   r.Counter("banshee_sim_inpkg_bytes_total", "in-package DRAM bytes inside measurement windows of executed runs"),
		offPkgBytes:  r.Counter("banshee_sim_offpkg_bytes_total", "off-package DRAM bytes inside measurement windows of executed runs"),
		mshrStalls:   r.Counter("banshee_mshr_stalls_total", "MSHR-full stall events over executed runs"),
		mshrCycles:   r.Counter("banshee_mshr_stall_cycles_total", "core cycles lost to MSHR-full stalls over executed runs"),
		epochs:       r.Counter("banshee_epochs_total", "epoch samples taken (warmup epochs included)"),
		mpki:         r.Gauge("banshee_epoch_mpki", "DRAM cache MPKI over the last epoch window"),
		ipc:          r.Gauge("banshee_epoch_ipc", "instructions per cycle over the last epoch window"),
		dcHitRate:    r.Gauge("banshee_epoch_dc_hit_rate", "DRAM cache hit rate over the last epoch window"),
		accPerSec:    r.Gauge("banshee_epoch_accesses_per_sec", "LLC accesses per wall-clock second over the last epoch window"),
		avgMissLat:   r.Gauge("banshee_epoch_avg_miss_latency_cycles", "mean LLC miss latency over the last epoch window"),
	}
}

// sample folds one epoch snapshot into the rate gauges and returns the
// wall time it was taken, the start of the next window's wall span.
// Totals are untouched — an epoch window may straddle the warmup
// boundary, and a run that later fails must leave no residue.
func (m *simMetrics) sample(snap stats.Snapshot, lastWall time.Time) time.Time {
	m.epochs.Inc()
	w := &snap.Window
	m.mpki.Set(w.MPKI())
	m.ipc.Set(w.IPC())
	m.dcHitRate.Set(w.DCHitRate())
	m.avgMissLat.Set(w.AvgMissLat())
	now := time.Now()
	if dt := now.Sub(lastWall).Seconds(); dt > 0 {
		m.accPerSec.Set(float64(w.LLCAccesses) / dt)
	}
	return now
}

// fold adds one run's final measurement window, and lane's MSHR stalls
// when the run had an in-process lane, to the totals.
func (m *simMetrics) fold(final stats.Sim, lane *System) {
	m.instructions.Add(final.Instructions)
	m.cycles.Add(final.Cycles)
	m.llcAccesses.Add(final.LLCAccesses)
	m.llcMisses.Add(final.LLCMisses)
	m.dcHits.Add(final.DCHits)
	m.dcMisses.Add(final.DCMisses)
	m.inPkgBytes.Add(final.InPkg.Total())
	m.offPkgBytes.Add(final.OffPkg.Total())
	if lane != nil {
		stalls, cycles := lane.MSHRStalls()
		m.mshrStalls.Add(stalls)
		m.mshrCycles.Add(cycles)
	}
}
