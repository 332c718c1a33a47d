package sim

import (
	"context"
	"testing"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

// TestSamplerExactConsistency pins Observe's totals contract: after
// fold, every banshee_sim_*_total counter equals the corresponding
// field of the statistics the run returned — sampling observes the
// run, it never re-measures it.
func TestSamplerExactConsistency(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	plain, err := Run(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}

	r := obs.NewRegistry()
	sess, err := NewSession(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}
	fold := sess.g.Observe(10_000, r)
	final, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fold([]stats.Sim{final})

	if final != plain {
		t.Fatalf("observation perturbed the run:\nplain:   %+v\nsampled: %+v", plain, final)
	}
	snap := r.Snapshot()
	for name, want := range map[string]uint64{
		"banshee_sim_instructions_total": final.Instructions,
		"banshee_sim_cycles_total":       final.Cycles,
		"banshee_sim_llc_accesses_total": final.LLCAccesses,
		"banshee_sim_llc_misses_total":   final.LLCMisses,
		"banshee_sim_dc_hits_total":      final.DCHits,
		"banshee_sim_dc_misses_total":    final.DCMisses,
		"banshee_sim_inpkg_bytes_total":  final.InPkg.Total(),
		"banshee_sim_offpkg_bytes_total": final.OffPkg.Total(),
	} {
		if got := uint64(snap[name]); got != want {
			t.Errorf("%s = %d, want %d (exact)", name, got, want)
		}
	}
	if snap["banshee_epochs_total"] == 0 {
		t.Error("no epoch samples recorded")
	}
	if snap["banshee_epoch_ipc"] <= 0 {
		t.Errorf("epoch IPC gauge = %g, want > 0", snap["banshee_epoch_ipc"])
	}
	// fold happens once and late samples are dropped: totals frozen.
	fold([]stats.Sim{final})
	sess.System().fireEpoch()
	after := r.Snapshot()
	if got := uint64(after["banshee_sim_instructions_total"]); got != final.Instructions {
		t.Errorf("totals moved after fold: %d, want %d", got, final.Instructions)
	}
	if after["banshee_epochs_total"] != snap["banshee_epochs_total"] {
		t.Errorf("late epoch sampled after fold: %g epochs, want %g",
			after["banshee_epochs_total"], snap["banshee_epochs_total"])
	}
}

// TestSamplerSharedRegistry pins the sweep-level contract: observers
// of several jobs sharing one registry sum their runs' measurement
// windows, so sweep counters equal the field sums of the emitted
// per-job results.
func TestSamplerSharedRegistry(t *testing.T) {
	r := obs.NewRegistry()
	var wantInstr, wantDCM uint64
	for _, wl := range []string{"pagerank", "mcf"} {
		cfg := sessionTestConfig(wl)
		sess, err := NewSession(cfg, wl, "Banshee")
		if err != nil {
			t.Fatal(err)
		}
		fold := sess.g.Observe(10_000, r)
		final, err := sess.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fold([]stats.Sim{final})
		wantInstr += final.Instructions
		wantDCM += final.DCMisses
	}
	snap := r.Snapshot()
	if got := uint64(snap["banshee_sim_instructions_total"]); got != wantInstr {
		t.Errorf("instructions = %d, want %d (sum over jobs)", got, wantInstr)
	}
	if got := uint64(snap["banshee_sim_dc_misses_total"]); got != wantDCM {
		t.Errorf("dc misses = %d, want %d (sum over jobs)", got, wantDCM)
	}
}

// TestMSHRStallCounters pins the MSHR back-pressure surface: with a
// single MSHR and no dependence stalls, every overlapping miss beyond
// the first must stall the core, and the lost cycles are visible
// through the accessor and the counters fold adds.
func TestMSHRStallCounters(t *testing.T) {
	cfg := sessionTestConfig("mcf")
	cfg.MSHRs = 1
	cfg.DepStallFrac = 0 // all misses overlap: the window is the only limiter
	r := obs.NewRegistry()
	sess, err := NewSession(cfg, cfg.Workload, "NoCache")
	if err != nil {
		t.Fatal(err)
	}
	fold := sess.g.Observe(10_000, r)
	final, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fold([]stats.Sim{final})

	stalls, cycles := sess.MSHRStalls()
	if stalls == 0 || cycles == 0 {
		t.Fatalf("MSHRs=1 run reports %d stalls, %d cycles — expected back-pressure", stalls, cycles)
	}
	snap := r.Snapshot()
	if got := uint64(snap["banshee_mshr_stalls_total"]); got != stalls {
		t.Errorf("banshee_mshr_stalls_total = %d, want %d", got, stalls)
	}
	if got := uint64(snap["banshee_mshr_stall_cycles_total"]); got != cycles {
		t.Errorf("banshee_mshr_stall_cycles_total = %d, want %d", got, cycles)
	}
}

// TestMSHRStallsDoNotChangeStats pins that the stall accounting is
// observation only: statistics with the counters present are
// bit-identical to the pre-instrumentation golden stats (covered by
// the golden test), and a generous MSHR window records no stalls.
func TestMSHRStallsDoNotChangeStats(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	cfg.MSHRs = 1 << 20 // effectively unlimited
	sess, err := NewSession(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if stalls, cycles := sess.MSHRStalls(); stalls != 0 || cycles != 0 {
		t.Fatalf("unlimited MSHR window still stalled: %d events, %d cycles", stalls, cycles)
	}
}

// TestObserveUnobservedInstallsNoHook guards the batched-replay fast
// path: Observe with no registry and no consumers leaves every lane's
// epoch hook unset, while a registry alone hooks every lane at the
// default interval.
func TestObserveUnobservedInstallsNoHook(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	g, err := NewGangSeeds(cfg, cfg.Workload, "Alloy 1", []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.Observe(0, nil)
	for i := 0; i < g.Width(); i++ {
		if l := g.Lane(i); l.epochFn != nil || l.epochEvery != 0 {
			t.Fatalf("lane %d: unobserved Observe installed an epoch hook (every %d)", i, l.epochEvery)
		}
	}
	g.Observe(0, obs.NewRegistry())
	for i := 0; i < g.Width(); i++ {
		if l := g.Lane(i); l.epochFn == nil || l.epochEvery != DefaultEpochEvery {
			t.Fatalf("lane %d: observed lane hook = %v every %d, want set every %d",
				i, l.epochFn != nil, l.epochEvery, DefaultEpochEvery)
		}
	}
}
