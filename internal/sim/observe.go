package sim

import (
	"sync"
	"time"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

// Sampler bridges one lane's epoch stream into an obs.Registry: the
// per-epoch windows drive rate gauges (MPKI, IPC, DRAM-cache hit rate,
// LLC accesses per wall-second), and each completed run folds its
// measurement-window counters into monotone totals.
//
// The totals carry an exactness contract: Finish(final) absorbs
// exactly `final` — the same measurement window the run reports — and
// is only called for runs whose results are actually emitted. Failed
// or cancelled attempts never touch the totals (their partial windows
// are discarded along with their partial results), so across a sweep
// the `banshee_sim_*_total` series equal the field sums of the
// executed results, retries and faults included. Mid-run the totals
// therefore trail the live window by at most one job; the epoch
// gauges are live.
//
// Several Samplers may share one registry (one per concurrent job):
// the registry hands every Sampler the same underlying metrics, and
// each Sampler folds in only its own run. A Sampler is bound to a
// single lane; the mutex guards a late epoch racing Finish.
type Sampler struct {
	lane *System

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

	mu       sync.Mutex
	lastWall time.Time
	done     bool
}

// NewSampler registers the simulation metric families on r and returns
// a sampler ready to bind to a lane. Registration is idempotent, so
// every sampler built against the same registry shares the same series.
func NewSampler(r *obs.Registry) *Sampler {
	return &Sampler{
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

// Bind associates the sampler with one lane — a Session's System, or
// one lane of a Gang — whose MSHR stall counters Finish folds. The
// lane's epoch hook is the caller's to install: it calls Sample,
// alongside any other consumer of the same epoch stream.
func (sp *Sampler) Bind(lane *System) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.lane = lane
	sp.lastWall = time.Now()
}

// Sample folds one epoch snapshot into the registry's rate gauges.
// Totals are untouched until Finish — an epoch window may straddle the
// warmup boundary, and a run that later fails must leave no residue.
func (sp *Sampler) Sample(snap stats.Snapshot) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.done {
		return
	}
	sp.epochs.Inc()

	w := &snap.Window
	sp.mpki.Set(w.MPKI())
	sp.ipc.Set(w.IPC())
	if tot := w.DCHits + w.DCMisses; tot > 0 {
		sp.dcHitRate.Set(float64(w.DCHits) / float64(tot))
	}
	sp.avgMissLat.Set(w.AvgMissLat())
	now := time.Now()
	if dt := now.Sub(sp.lastWall).Seconds(); dt > 0 {
		sp.accPerSec.Set(float64(w.LLCAccesses) / dt)
	}
	sp.lastWall = now
}

// Finish folds the run's final measurement window into the totals.
// Call it once, with the statistics the run returned, and only for
// runs whose results are kept; later calls and late epoch samples are
// no-ops.
func (sp *Sampler) Finish(final stats.Sim) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.done {
		return
	}
	sp.done = true
	sp.instructions.Add(final.Instructions)
	sp.cycles.Add(final.Cycles)
	sp.llcAccesses.Add(final.LLCAccesses)
	sp.llcMisses.Add(final.LLCMisses)
	sp.dcHits.Add(final.DCHits)
	sp.dcMisses.Add(final.DCMisses)
	sp.inPkgBytes.Add(final.InPkg.Total())
	sp.offPkgBytes.Add(final.OffPkg.Total())
	if sp.lane != nil {
		stalls, cycles := sp.lane.MSHRStalls()
		sp.mshrStalls.Add(stalls)
		sp.mshrCycles.Add(cycles)
	}
}
