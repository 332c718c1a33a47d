// Golden-stats equivalence tests: every registered scheme display name
// (plus a +BATMAN modifier sample) × one workload of each synthetic
// kind is pinned to byte-identical stats.Sim JSON in
// testdata/golden_stats.json. The golden file was captured before the
// data-oriented storage refactor (flat SoA caches, devirtualized event
// queue, flat-map page table/TLB), so these tests prove the layout work
// changed *how* the simulator computes, never *what* it computes.
//
// Regenerate deliberately with:
//
//	go test -run TestGoldenStats -update .
//
// and justify the diff in the commit message — a golden change means
// simulation output changed.
package banshee_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"banshee"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_stats.json from this tree")

// goldenConfig is small enough to run every scheme × workload pair in
// milliseconds but still exercises the interesting machinery: both
// cores, TLB miss paths, LLC evictions, Banshee tag-buffer flushes, and
// (via the shortened epoch) HMA's stop-the-world remap routine.
func goldenConfig() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 60_000
	cfg.Seed = 42
	cfg.Scheme.HMAEpochAccesses = 2000
	return cfg
}

// goldenWorkloads covers one name per parametric source kind: a SPEC
// profile, a multi-programmed mix, and a graph-analytics profile. The
// graph-kernel kind is pinned by goldenKernelWorkloads, the tracefile
// kind by TestGoldenReplayIdentity below.
var goldenWorkloads = []string{"mcf", "mix1", "pagerank"}

// goldenPrefetchDegree, goldenPrefetchSchemes and
// goldenPrefetchWorkloads pin the L2 stream prefetcher (§3.2): one
// scheme per mapping family (none, tags in DRAM, PTE-held mapping with
// page-boundary stops and copied mapping bits, tagless) on a pointer-
// chasing and a streaming workload. Their keys carry a "| prefetch N"
// suffix.
const goldenPrefetchDegree = 4

var (
	goldenPrefetchSchemes   = []string{"NoCache", "Alloy 1", "Banshee", "TDC"}
	goldenPrefetchWorkloads = []string{"mcf", "lbm"}
)

// goldenKernelScale, goldenKernelSchemes and goldenKernelWorkloads pin
// the graph-kernel tier: every "<name>_kernel" workload walks a
// synthetic CSR substrate (internal/graph) under a no-cache baseline, a
// tags-in-DRAM cache and Banshee. The reduced footprint scale keeps
// each graph a few chunks of vertices, so chunk boundaries and a
// partial last chunk are on the pinned path. Their keys carry a
// "| scale S" suffix.
const goldenKernelScale = 1e-3

var (
	goldenKernelSchemes   = []string{"NoCache", "Alloy 1", "Banshee"}
	goldenKernelWorkloads = []string{
		"pagerank_kernel", "tri_count_kernel", "graph500_kernel", "sgd_kernel", "lsh_kernel",
	}
)

// goldenSchemes is the fixed built-in list (not RegisteredSchemes(),
// which other tests in this package extend at runtime), plus one
// +BATMAN modifier sample per wrapped family.
func goldenSchemes() []string {
	return []string{
		"Alloy", "Alloy 1", "Alloy 0.1",
		"Banshee", "Banshee LRU", "Banshee NoSample", "Banshee Duel",
		"Banshee FP", "Banshee 2M",
		"NoCache", "CacheOnly", "CAMEO", "HMA", "TDC", "Unison",
		"Banshee+BATMAN", "Alloy 1+BATMAN",
	}
}

func TestGoldenStats(t *testing.T) {
	got := make(map[string]banshee.Result)
	for _, scheme := range goldenSchemes() {
		for _, w := range goldenWorkloads {
			cfg := goldenConfig()
			cfg.LargePages = scheme == "Banshee 2M" // the only page size it runs on
			res, err := banshee.Run(cfg, w, scheme)
			if err != nil {
				t.Fatalf("%s × %s: %v", scheme, w, err)
			}
			got[scheme+" | "+w] = res
		}
	}
	for _, scheme := range goldenPrefetchSchemes {
		for _, w := range goldenPrefetchWorkloads {
			cfg := goldenConfig()
			cfg.PrefetchDegree = goldenPrefetchDegree
			res, err := banshee.Run(cfg, w, scheme)
			if err != nil {
				t.Fatalf("%s × %s × prefetch: %v", scheme, w, err)
			}
			got[fmt.Sprintf("%s | %s | prefetch %d", scheme, w, goldenPrefetchDegree)] = res
		}
	}
	for _, scheme := range goldenKernelSchemes {
		for _, w := range goldenKernelWorkloads {
			cfg := goldenConfig()
			cfg.Scale = goldenKernelScale
			res, err := banshee.Run(cfg, w, scheme)
			if err != nil {
				t.Fatalf("%s × %s × scale: %v", scheme, w, err)
			}
			got[fmt.Sprintf("%s | %s | scale %g", scheme, w, goldenKernelScale)] = res
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "golden_stats.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d entries)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if string(want) == string(data) {
		return
	}
	// Byte mismatch: diff entry by entry so the failure names the
	// scheme × workload pairs that drifted instead of dumping JSON.
	var wantMap map[string]banshee.Result
	if err := json.Unmarshal(want, &wantMap); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	for key, g := range got {
		w, ok := wantMap[key]
		if !ok {
			t.Errorf("%s: not in golden file (new scheme or workload? rerun -update)", key)
			continue
		}
		if g != w {
			t.Errorf("%s: stats drifted from golden\n got: %+v\nwant: %+v", key, g, w)
		}
	}
	for key := range wantMap {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: in golden file but no longer produced", key)
		}
	}
	if !t.Failed() {
		t.Error("golden JSON bytes differ but entries match — formatting drift; rerun -update")
	}
}

// TestGoldenReplayIdentity pins the tracefile workload kind across the
// same refactor: a recorded trace replayed through "file:<path>" must
// produce the same statistics as the direct synthetic run it captured,
// for a tag-buffer scheme and a map-heavy baseline.
func TestGoldenReplayIdentity(t *testing.T) {
	cfg := goldenConfig()
	path := filepath.Join(t.TempDir(), "mcf.btrc")
	err := banshee.RecordTrace(path, "mcf", banshee.RecordOptions{
		Cores: cfg.Cores, Seed: cfg.Seed, EventsPerCore: cfg.InstrPerCore,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"Banshee", "HMA"} {
		direct, err := banshee.Run(cfg, "mcf", scheme)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Cores = 0 // adopt the recording's core count
		replay, err := banshee.Run(rcfg, "file:"+path, scheme)
		if err != nil {
			t.Fatal(err)
		}
		replay.Workload = direct.Workload // the label legitimately differs
		if direct != replay {
			t.Errorf("%s: replayed stats differ from direct run\ndirect: %+v\nreplay: %+v", scheme, direct, replay)
		}
	}
}
