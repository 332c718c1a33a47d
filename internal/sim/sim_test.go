package sim

import (
	"testing"

	"banshee/internal/mem"
	"banshee/internal/registry"
)

// quickConfig returns a config small enough for unit tests.
func quickConfig(workload, scheme string) Config {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 150_000
	cfg.Cores = 4
	cfg.Seed = 42
	cfg.Workload = workload
	spec, err := ParseScheme(scheme)
	if err != nil {
		panic(err)
	}
	cfg.Scheme = spec
	return cfg
}

func TestParseScheme(t *testing.T) {
	for _, name := range []string{
		"NoCache", "CacheOnly", "Alloy 1", "Alloy 0.1", "Unison", "TDC",
		"HMA", "Banshee", "Banshee LRU", "Banshee NoSample", "Banshee 2M",
		"Banshee+BATMAN", "Alloy 1+BATMAN",
	} {
		if _, err := ParseScheme(name); err != nil {
			t.Errorf("ParseScheme(%q): %v", name, err)
		}
	}
	if _, err := ParseScheme("Bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	spec, _ := ParseScheme("Banshee+BATMAN")
	if !spec.BATMAN || spec.Kind != "banshee" {
		t.Fatalf("BATMAN suffix not parsed: %+v", spec)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee")
	cfg.Cores = 0
	if _, err := NewSessionConfig(cfg); err == nil {
		t.Fatal("zero cores accepted")
	}
	cfg = quickConfig("pagerank", "Banshee")
	cfg.WarmupFrac = 1.0
	if _, err := NewSessionConfig(cfg); err == nil {
		t.Fatal("warmup 1.0 accepted")
	}
	cfg = quickConfig("nosuchworkload", "Banshee")
	if _, err := NewSessionConfig(cfg); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunProducesSaneStats(t *testing.T) {
	for _, scheme := range []string{"NoCache", "CacheOnly", "Alloy 1", "Unison", "TDC", "HMA", "Banshee"} {
		st, err := Run(quickConfig("pagerank", scheme), "pagerank", scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if st.Instructions == 0 || st.Cycles == 0 {
			t.Fatalf("%s: empty run: %+v", scheme, st)
		}
		if st.LLCMisses == 0 {
			t.Fatalf("%s: no LLC misses", scheme)
		}
		if st.IPC() <= 0 || st.IPC() > float64(4*4) {
			t.Fatalf("%s: implausible IPC %v", scheme, st.IPC())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		st, err := Run(quickConfig("mix1", "Banshee"), "mix1", "Banshee")
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, st.InPkg.Total()
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("runs differ: cycles %d/%d bytes %d/%d", c1, c2, b1, b2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee")
	st1, _ := Run(cfg, "pagerank", "Banshee")
	cfg.Seed = 43
	st2, _ := Run(cfg, "pagerank", "Banshee")
	if st1.Cycles == st2.Cycles {
		t.Fatal("different seeds produced identical cycle counts")
	}
}

func TestNoCacheTouchesOnlyOffPackage(t *testing.T) {
	st, _ := Run(quickConfig("pagerank", "NoCache"), "pagerank", "NoCache")
	if st.InPkg.Total() != 0 {
		t.Fatal("NoCache generated in-package traffic")
	}
	if st.OffPkg.Total() == 0 {
		t.Fatal("NoCache generated no off-package traffic")
	}
	if st.DCHits != 0 {
		t.Fatal("NoCache reported DRAM-cache hits")
	}
}

func TestCacheOnlyTouchesOnlyInPackage(t *testing.T) {
	st, _ := Run(quickConfig("pagerank", "CacheOnly"), "pagerank", "CacheOnly")
	if st.OffPkg.Total() != 0 {
		t.Fatal("CacheOnly generated off-package traffic")
	}
	if st.DCMisses != 0 {
		t.Fatal("CacheOnly missed")
	}
}

func TestCacheOnlyFasterThanNoCache(t *testing.T) {
	no, _ := Run(quickConfig("pagerank", "NoCache"), "pagerank", "NoCache")
	co, _ := Run(quickConfig("pagerank", "CacheOnly"), "pagerank", "CacheOnly")
	if co.Cycles >= no.Cycles {
		t.Fatalf("CacheOnly (%d cycles) not faster than NoCache (%d)", co.Cycles, no.Cycles)
	}
}

func TestBansheeGeneratesSchemeEvents(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee")
	cfg.InstrPerCore = 400_000
	st, _ := Run(cfg, "pagerank", "Banshee")
	if st.Remaps == 0 {
		t.Fatal("Banshee never replaced a page")
	}
	if st.CounterSamples == 0 {
		t.Fatal("Banshee never sampled counters")
	}
	if st.InPkg.Bytes[mem.ClassTag] == 0 && st.InPkg.Bytes[mem.ClassCounter] == 0 {
		t.Fatal("no metadata traffic recorded")
	}
}

func TestBansheeTagBufferFlushes(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee")
	cfg.InstrPerCore = 600_000
	// A small tag buffer forces flushes within the short run.
	cfg.Scheme.BansheeTagBufEntries = 64
	st, _ := Run(cfg, "pagerank", "Banshee")
	if st.TagBufferFlushes == 0 {
		t.Fatal("no PTE/TLB sync rounds despite tiny tag buffer")
	}
	if st.TLBShootdowns == 0 {
		t.Fatal("flushes did not shoot down TLBs")
	}
	if st.SWStallCycles == 0 {
		t.Fatal("software cost not charged")
	}
}

func TestLargePagesRun(t *testing.T) {
	cfg := quickConfig("pagerank", "Banshee 2M")
	cfg.LargePages = true
	st, err := Run(cfg, "pagerank", "Banshee 2M")
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "Banshee 2M" {
		t.Fatalf("scheme %q", st.Scheme)
	}
	if st.LLCMisses == 0 {
		t.Fatal("no misses")
	}
}

func TestBATMANWrapping(t *testing.T) {
	st, err := Run(quickConfig("pagerank", "Banshee+BATMAN"), "pagerank", "Banshee+BATMAN")
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheme != "Banshee+BATMAN" {
		t.Fatalf("scheme %q", st.Scheme)
	}
}

func TestTrafficConservation(t *testing.T) {
	// Property: a demand miss under Banshee moves at least 64 B
	// somewhere; total traffic bounds below by misses × line.
	st, _ := Run(quickConfig("mcf", "Banshee"), "mcf", "Banshee")
	minBytes := st.DCMisses * mem.LineBytes
	if st.InPkg.Total()+st.OffPkg.Total() < minBytes {
		t.Fatalf("total traffic %d below demand floor %d",
			st.InPkg.Total()+st.OffPkg.Total(), minBytes)
	}
}

func TestHitRateOrdering(t *testing.T) {
	// TDC and Unison (replace on every miss + perfect footprint) must
	// show much lower MPKI than Banshee (selective caching) — the
	// paper's Fig. 4 red-dot pattern.
	cfg := quickConfig("pagerank", "TDC")
	cfg.InstrPerCore = 400_000
	tdc, _ := Run(cfg, "pagerank", "TDC")
	ban, _ := Run(cfg, "pagerank", "Banshee")
	if tdc.MPKI() >= ban.MPKI() {
		t.Fatalf("TDC MPKI %.1f not below Banshee %.1f", tdc.MPKI(), ban.MPKI())
	}
}

func TestSchemeNamesRun(t *testing.T) {
	for _, n := range registry.Comparison() {
		if _, err := ParseScheme(n); err != nil {
			t.Errorf("comparison scheme %q unparseable", n)
		}
	}
}
