package sim

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/workload"
)

// Integration tests: whole-system properties that only emerge from the
// interaction of cores, caches, VM, scheme, and DRAM timing.

// runConfig runs cfg exactly as given to completion.
func runConfig(cfg Config) (stats.Sim, error) {
	sess, err := NewSessionConfig(cfg)
	if err != nil {
		return stats.Sim{}, err
	}
	return sess.Run(context.Background())
}

func TestWorkloadSchemeMatrixRuns(t *testing.T) {
	// Every (workload, scheme) pair must run without panicking and
	// produce internally consistent statistics. Small budgets keep this
	// broad sweep fast.
	schemes := []string{"NoCache", "CacheOnly", "Alloy 0.1", "Unison", "TDC", "HMA", "CAMEO", "Banshee", "Banshee FP", "Banshee Duel"}
	workloads := []string{"pagerank", "lbm", "mix1"}
	for _, w := range workloads {
		for _, sc := range schemes {
			cfg := quickConfig(w, sc)
			cfg.InstrPerCore = 60_000
			st, err := Run(cfg, w, sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", w, sc, err)
			}
			if st.DCHits+st.DCMisses != st.LLCMisses {
				t.Errorf("%s/%s: DC hits+misses %d != LLC misses %d",
					w, sc, st.DCHits+st.DCMisses, st.LLCMisses)
			}
		}
	}
}

func TestHierarchyFiltering(t *testing.T) {
	st, _ := Run(quickConfig("gcc", "NoCache"), "gcc", "NoCache")
	if st.L1Accesses == 0 {
		t.Fatal("no L1 accesses recorded")
	}
	if st.LLCAccesses > st.L2Accesses || st.L2Accesses > st.L1Accesses {
		t.Fatalf("hierarchy not filtering: L1=%d L2=%d LLC=%d",
			st.L1Accesses, st.L2Accesses, st.LLCAccesses)
	}
	if st.LLCMisses > st.LLCAccesses {
		t.Fatal("more LLC misses than accesses")
	}
	// Per-level miss counters: an L1 miss is exactly an L2 access and an
	// L2 miss exactly an LLC access (no prefetcher in this config), and
	// misses can never exceed accesses at their own level.
	if st.L1Misses == 0 || st.L2Misses == 0 {
		t.Fatalf("miss counters not wired: L1Misses=%d L2Misses=%d",
			st.L1Misses, st.L2Misses)
	}
	if st.L1Misses != st.L2Accesses {
		t.Fatalf("L1 misses %d != L2 accesses %d", st.L1Misses, st.L2Accesses)
	}
	if st.L2Misses != st.LLCAccesses {
		t.Fatalf("L2 misses %d != LLC accesses %d", st.L2Misses, st.LLCAccesses)
	}
	if st.L1Misses > st.L1Accesses || st.L2Misses > st.L2Accesses {
		t.Fatalf("misses exceed accesses: L1 %d/%d L2 %d/%d",
			st.L1Misses, st.L1Accesses, st.L2Misses, st.L2Accesses)
	}
}

func TestWriteWorkloadProducesEvictions(t *testing.T) {
	// lbm writes ~45% of references; dirty lines must flow out of the
	// LLC to the memory controller.
	st, _ := Run(quickConfig("lbm", "NoCache"), "lbm", "NoCache")
	if st.LLCEvictions == 0 {
		t.Fatal("write-heavy workload produced no LLC evictions")
	}
	// Under NoCache every eviction lands off-package as Replacement
	// class writes.
	if st.OffPkg.Bytes[mem.ClassReplacement] == 0 {
		t.Fatal("evictions not accounted off-package")
	}
}

func TestAlloyWriteAbsorption(t *testing.T) {
	// The always-fill Alloy absorbs dirty evictions in-package (they hit
	// lines filled by the preceding read misses), relieving off-package
	// write traffic relative to NoCache — the lbm effect.
	cfg := quickConfig("lbm", "NoCache")
	cfg.InstrPerCore = 300_000
	no, _ := Run(cfg, "lbm", "NoCache")
	al, _ := Run(cfg, "lbm", "Alloy 1")
	noWrites := no.OffPkg.Bytes[mem.ClassReplacement]
	alWrites := al.OffPkg.Bytes[mem.ClassReplacement]
	if alWrites >= noWrites {
		t.Fatalf("Alloy off-package write bytes %d not below NoCache %d", alWrites, noWrites)
	}
}

func TestBansheeMPKIBelowNoCache(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee")
	cfg.InstrPerCore = 400_000
	no, _ := Run(cfg, "pagerank", "NoCache")
	ba, _ := Run(cfg, "pagerank", "Banshee")
	if ba.MPKI() >= no.MPKI() {
		t.Fatalf("Banshee MPKI %.1f not below NoCache %.1f", ba.MPKI(), no.MPKI())
	}
}

func TestLargePageEvictionRouting(t *testing.T) {
	// End-to-end §4.3: with 2 MB pages, LLC dirty evictions carry the
	// page-size bit and must route through the large-page Banshee
	// without probes exploding or mis-mapped writes.
	cfg := quickConfig("pagerank", "Banshee 2M")
	cfg.LargePages = true
	cfg.InstrPerCore = 300_000
	st, err := Run(cfg, "pagerank", "Banshee 2M")
	if err != nil {
		t.Fatal(err)
	}
	if st.LLCEvictions == 0 {
		t.Skip("no evictions in this window")
	}
	// Writes to cached large pages land in-package as HitData.
	if st.InPkg.Bytes[mem.ClassHitData] == 0 {
		t.Fatal("no in-package data traffic under large pages")
	}
}

func TestSWStallsSlowTheRun(t *testing.T) {
	// Raising the PTE-update cost must never make the run faster.
	cfg := quickConfig("pagerank", "Banshee")
	cfg.InstrPerCore = 700_000
	cfg.Scheme.BansheeTagBufEntries = 16 // force frequent flushes
	cfg.Scheme.PTEUpdateMicros = 0.001
	cheap, _ := Run(cfg, "pagerank", "Banshee")
	if cheap.TagBufferFlushes == 0 {
		t.Fatal("setup bug: no flushes to cost")
	}
	cfg.Scheme.PTEUpdateMicros = 200 // absurdly expensive
	costly, _ := Run(cfg, "pagerank", "Banshee")
	if costly.Cycles <= cheap.Cycles {
		t.Fatalf("200µs PTE updates (%d cycles) not slower than free (%d)",
			costly.Cycles, cheap.Cycles)
	}
	if costly.SWStallCycles <= cheap.SWStallCycles {
		t.Fatal("software stalls not accounted")
	}
}

func TestBandwidthSweepMonotone(t *testing.T) {
	// Fig. 8c's premise: more in-package channels must not hurt a
	// cache-heavy scheme.
	cfg := quickConfig("pagerank", "Unison")
	cfg.InstrPerCore = 250_000
	cfg.InPkgChannels = 2
	narrow, _ := Run(cfg, "pagerank", "Unison")
	cfg.InPkgChannels = 8
	wide, _ := Run(cfg, "pagerank", "Unison")
	if wide.Cycles > narrow.Cycles*105/100 {
		t.Fatalf("8-channel run (%d cycles) slower than 2-channel (%d)",
			wide.Cycles, narrow.Cycles)
	}
}

func TestLatencySweepMonotone(t *testing.T) {
	cfg := quickConfig("mcf", "TDC")
	cfg.InstrPerCore = 250_000
	cfg.InPkgLatScale = 1.0
	slow, _ := Run(cfg, "mcf", "TDC")
	cfg.InPkgLatScale = 0.5
	fast, _ := Run(cfg, "mcf", "TDC")
	if fast.Cycles > slow.Cycles*102/100 {
		t.Fatalf("halved latency (%d cycles) not at least as fast as full (%d)",
			fast.Cycles, slow.Cycles)
	}
}

func TestKernelWorkloadsEndToEnd(t *testing.T) {
	for _, w := range []string{"pagerank_kernel", "tri_count_kernel", "sgd_kernel", "lsh_kernel", "graph500_kernel"} {
		cfg := quickConfig(w, "Banshee")
		cfg.InstrPerCore = 80_000
		st, err := Run(cfg, w, "Banshee")
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if st.LLCMisses == 0 {
			t.Errorf("%s: no DRAM traffic", w)
		}
	}
}

func TestWarmupWindowExcluded(t *testing.T) {
	// With warmup, the measured window must be smaller than the whole
	// run (cycles measured < cycles of a warmup-free run).
	cfg := quickConfig("pagerank", "Banshee")
	cfg.InstrPerCore = 200_000
	cfg.WarmupFrac = 0
	full, _ := Run(cfg, "pagerank", "Banshee")
	cfg.WarmupFrac = 0.5
	windowed, _ := Run(cfg, "pagerank", "Banshee")
	if windowed.Cycles >= full.Cycles {
		t.Fatalf("warmup window (%d cycles) not smaller than full run (%d)",
			windowed.Cycles, full.Cycles)
	}
	if windowed.Instructions >= full.Instructions {
		t.Fatal("warmup instructions not excluded")
	}
}

func TestRecordReplayIdenticalStats(t *testing.T) {
	// The acceptance criterion of the capture/replay subsystem: running
	// a recorded trace through the simulator must produce bit-identical
	// statistics to running the synthetic workload directly with the
	// same seed. Recording InstrPerCore events per core guarantees the
	// replay never reads past its end (every event retires at least one
	// instruction).
	dir := t.TempDir()
	cases := []struct {
		wl    string
		scale float64 // 0 = quickConfig default; kernels shrink their graphs
	}{
		{wl: "mcf"},                           // multiprogrammed, private address spaces
		{wl: "pagerank"},                      // shared address space, per-core Zipf streams
		{wl: "tri_count_kernel", scale: 1e-3}, // graph-kernel-derived stream
	}
	for _, tc := range cases {
		wl := tc.wl
		base := quickConfig(wl, "NoCache")
		base.InstrPerCore = 60_000
		if tc.scale != 0 {
			base.Scale = tc.scale
		}
		path := filepath.Join(dir, wl+".btrc")
		err := workload.Record(path, wl, workload.Config{
			Cores: base.Cores, Seed: base.Seed, Scale: base.Scale, Intensity: base.Intensity,
		}, base.InstrPerCore)
		if err != nil {
			t.Fatalf("%s: record: %v", wl, err)
		}
		for _, scheme := range []string{"Banshee", "Alloy 0.1"} {
			cfg := quickConfig(wl, scheme)
			cfg.InstrPerCore = base.InstrPerCore
			cfg.Scale = base.Scale

			direct, err := runConfig(cfg)
			if err != nil {
				t.Fatalf("%s/%s: direct: %v", wl, scheme, err)
			}
			rcfg := cfg
			rcfg.Workload = workload.FilePrefix + path
			replayed, err := runConfig(rcfg)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", wl, scheme, err)
			}
			// The workload label necessarily differs ("file:<path>");
			// every measurement must not.
			replayed.Workload = direct.Workload
			if direct != replayed {
				t.Errorf("%s/%s: replayed stats differ from direct run:\ndirect:   %+v\nreplayed: %+v",
					wl, scheme, direct, replayed)
			}
		}
	}
}

func TestReplayCoreMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")
	err := workload.Record(path, "gcc", workload.Config{Cores: 2, Seed: 1, Scale: 1e-3, Intensity: 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig("gcc", "NoCache")
	cfg.Workload = workload.FilePrefix + path // cfg.Cores is 4
	if _, err := NewSessionConfig(cfg); err == nil {
		t.Fatal("core-count mismatch between recording and config accepted")
	}
}

func TestReplayCorruptTraceFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.btrc")
	cfg := quickConfig("gcc", "NoCache")
	cfg.InstrPerCore = 20_000
	err := workload.Record(path, "gcc", workload.Config{
		Cores: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale, Intensity: cfg.Intensity,
	}, cfg.InstrPerCore)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in core 0's first chunk — one the run is
	// guaranteed to load: Open still succeeds (chunks load lazily and
	// only the index is validated up front) but the run must fail
	// instead of returning stats over a corrupted stream.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Workload = workload.FilePrefix + path
	if _, err := runConfig(cfg); err == nil {
		t.Fatal("corrupt trace replayed without error")
	}
}

func TestReplayShorterThanRunFails(t *testing.T) {
	// A recording shorter than the run runs out mid-run; the run must
	// fail at the first read past its end instead of returning stats
	// over a truncated stream.
	path := filepath.Join(t.TempDir(), "short.btrc")
	cfg := quickConfig("gcc", "NoCache")
	cfg.InstrPerCore = 50_000
	err := workload.Record(path, "gcc", workload.Config{
		Cores: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale, Intensity: cfg.Intensity,
	}, 200) // far fewer events than the run consumes
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = workload.FilePrefix + path
	if _, err := runConfig(cfg); err == nil {
		t.Fatal("wrapped replay returned stats instead of an error")
	}
}

func TestReplayAdoptsRecordedCores(t *testing.T) {
	// Cores == 0 adopts a trace file's recorded core count, so callers
	// can replay a file without knowing its shape up front.
	path := filepath.Join(t.TempDir(), "t.btrc")
	cfg := quickConfig("gcc", "NoCache")
	cfg.InstrPerCore = 30_000
	cfg.Cores = 2
	rec := workload.Config{Cores: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale, Intensity: cfg.Intensity}
	if err := workload.Record(path, "gcc", rec, 30_000); err != nil {
		t.Fatal(err)
	}
	direct, err := runConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = workload.FilePrefix + path
	cfg.Cores = 0 // adopt
	adopted, err := runConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adopted.Workload = direct.Workload
	if direct != adopted {
		t.Fatal("adopted-cores replay differs from direct 2-core run")
	}
	// Synthetic workloads have no recorded shape; 0 must still error.
	cfg.Workload = "gcc"
	if _, err := NewSessionConfig(cfg); err == nil {
		t.Fatal("cores=0 accepted for a synthetic workload")
	}
}
