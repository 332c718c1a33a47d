// Gang-execution contract tests (DESIGN.md §12): a width-8 gang must
// produce byte-identical per-lane statistics to the same configs run
// independently, across scheme families and workload kinds; the lanes
// must share one workload substrate build instead of N; and ineligible
// configurations must be rejected up front with the reason.
package banshee_test

import (
	"encoding/json"
	"strings"
	"testing"

	"banshee"
	"banshee/internal/graph"
)

const gangWidth = 8

// gangSeeds is the per-lane seed axis: distinct seeds so every lane's
// back end (L3 hashing, scheme tie-breaks, DRAM arbitration jitter)
// diverges while the front-end stream stays shared via WorkloadSeed.
func gangSeeds() []uint64 {
	seeds := make([]uint64, gangWidth)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

func gangConfig() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 60_000
	cfg.Seed = 42
	cfg.WorkloadSeed = 42 // all lanes share this stream
	return cfg
}

// TestGangLaneIdentity is the core gang guarantee: a width-8 gang's
// per-lane stats.Sim must be byte-identical to 8 independent runs of
// the same configs, across ≥3 scheme families × 2 workload kinds (a
// parametric SPEC profile and a graph-kernel workload), plus a
// prefetch-on case: each lane's prefetcher observes the shared stream's
// L1 misses against its own clock. The default WarmupFrac stays on, so
// each lane's warmup→measure transition is exercised at its own pace
// inside the lockstep gang. Width-1 gangs of the schemes that may not
// share a stream (Banshee, HMA) are stand-alone runs, the form every
// batch-engine single takes.
func TestGangLaneIdentity(t *testing.T) {
	type laneCase struct {
		scheme, workload string
		prefetch, width  int
	}
	var cases []laneCase
	for _, scheme := range []string{"NoCache", "Alloy 1", "TDC", "Unison"} {
		for _, w := range []string{"mcf", "pagerank_kernel"} {
			cases = append(cases, laneCase{scheme, w, 0, gangWidth})
		}
	}
	cases = append(cases, laneCase{"Alloy 1", "lbm", 4, gangWidth},
		laneCase{"Banshee", "mcf", 0, 1}, laneCase{"HMA", "mcf", 0, 1})
	for _, tc := range cases {
		name := tc.scheme + "/" + tc.workload
		if tc.prefetch > 0 {
			name += "/prefetch"
		}
		if tc.width == 1 {
			name += "/width1"
		}
		seeds := gangSeeds()[:tc.width]
		t.Run(name, func(t *testing.T) {
			base := gangConfig()
			base.PrefetchDegree = tc.prefetch
			g, err := banshee.NewGangSession(base, tc.workload, tc.scheme, seeds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Run(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				cfg := base
				cfg.Seed = seed
				want, err := banshee.Run(cfg, tc.workload, tc.scheme)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("lane %d (seed %d) diverged from independent run\n gang: %+v\n solo: %+v",
						i, seed, got[i], want)
					continue
				}
				// The comparable-struct equality above implies JSON
				// equality; pin the byte-identity claim explicitly
				// anyway, since the batch sink stores JSON.
				gj, _ := json.Marshal(got[i])
				wj, _ := json.Marshal(want)
				if string(gj) != string(wj) {
					t.Errorf("lane %d JSON differs:\n gang: %s\n solo: %s", i, gj, wj)
				}
			}
		})
	}
}

// TestGangSharedSubstrateBuild: the lanes of a gang share one workload
// source, so a graph-kernel gang builds its graph substrate exactly
// once — not once per lane. The workload seed is unique to this test
// so the substrate cache cannot serve a graph built elsewhere.
func TestGangSharedSubstrateBuild(t *testing.T) {
	cfg := gangConfig()
	cfg.WorkloadSeed = 0x6a6e9137 // unique stream → guaranteed cache miss
	before := graph.Builds()
	g, err := banshee.NewGangSession(cfg, "pagerank_kernel", "Alloy 1", gangSeeds())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if built := graph.Builds() - before; built != 1 {
		t.Fatalf("width-%d gang built the graph substrate %d times, want 1", g.Width(), built)
	}
}

// TestGangRejectsIneligible: configurations the lockstep replay cannot
// honor must fail at construction with the disqualifying reason, not
// silently diverge.
func TestGangRejectsIneligible(t *testing.T) {
	// Banshee's tag-buffer flush shoots down every TLB, which a front
	// end translating ahead of the lanes cannot see. HMA's remap epochs
	// stall every core, which batched replay cannot place exactly.
	for _, scheme := range []string{"Banshee", "HMA"} {
		if _, err := banshee.NewGangSession(gangConfig(), "mcf", scheme, gangSeeds()); err == nil ||
			!strings.Contains(err.Error(), "gang-safe") {
			t.Fatalf("%s gang: got %v, want a not-gang-safe error", scheme, err)
		}
	}
}
