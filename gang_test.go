// Gang-execution contract tests (DESIGN.md §12): a width-8 gang must
// produce byte-identical per-lane statistics to the same configs run
// independently, across scheme families, mixed schemes and workload
// kinds; and the lanes must share one workload substrate build instead
// of N.
package banshee_test

import (
	"encoding/json"
	"testing"

	"banshee"
	"banshee/internal/graph"
	"banshee/internal/sim"
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
// the same configs, across scheme families × 2 workload kinds (a
// parametric SPEC profile and a graph-kernel workload), plus a
// prefetch-on case: each lane's prefetcher observes the shared stream's
// L1 misses against its own clock. Banshee's lanes shoot down the TLBs
// and HMA's stall every core, so their lanes never batch; one mixed
// gang runs them beside batching lanes and a modifier lane, so the
// stream runs ahead of the shooting-down lanes. The default WarmupFrac
// stays on, so each lane's warmup→measure transition is exercised at
// its own pace inside the lockstep gang. The width-1 cases are
// stand-alone runs, the form every batch-engine single takes.
func TestGangLaneIdentity(t *testing.T) {
	type laneCase struct {
		scheme, workload string
		prefetch, width  int
		mixed            []string // one scheme per lane; overrides scheme
	}
	var cases []laneCase
	for _, scheme := range []string{"NoCache", "Alloy 1", "TDC", "Unison"} {
		for _, w := range []string{"mcf", "pagerank_kernel"} {
			cases = append(cases, laneCase{scheme: scheme, workload: w, width: gangWidth})
		}
	}
	cases = append(cases, laneCase{scheme: "Alloy 1", workload: "lbm", prefetch: 4, width: gangWidth},
		laneCase{scheme: "Banshee", workload: "mcf", width: 1}, laneCase{scheme: "HMA", workload: "mcf", width: 1},
		laneCase{scheme: "Banshee", workload: "mcf", width: gangWidth},
		laneCase{scheme: "Banshee LRU", workload: "mcf", width: gangWidth},
		laneCase{scheme: "HMA", workload: "mcf", width: gangWidth},
		laneCase{scheme: "mixed", workload: "mcf", width: gangWidth, mixed: []string{
			"Banshee LRU", "Alloy 1", "Banshee", "HMA", "TDC", "Banshee NoSample", "Unison+BATMAN", "NoCache",
		}})
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
			schemes := make([]string, len(seeds))
			cfgs := make([]banshee.Config, len(seeds))
			for i, seed := range seeds {
				schemes[i] = tc.scheme
				if tc.mixed != nil {
					schemes[i] = tc.mixed[i]
				}
				spec, err := banshee.ParseScheme(schemes[i])
				if err != nil {
					t.Fatal(err)
				}
				cfgs[i] = base
				cfgs[i].Seed, cfgs[i].Workload, cfgs[i].Scheme = seed, tc.workload, spec
			}
			g, err := sim.NewGang(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Run(t.Context())
			if err != nil {
				t.Fatal(err)
			}
			var shootdowns uint64
			for i, seed := range seeds {
				cfg := base
				cfg.Seed = seed
				want, err := banshee.Run(cfg, tc.workload, schemes[i])
				if err != nil {
					t.Fatal(err)
				}
				shootdowns += want.TLBShootdowns
				if got[i] != want {
					t.Errorf("lane %d (%s, seed %d) diverged from independent run\n gang: %+v\n solo: %+v",
						i, schemes[i], seed, got[i], want)
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
			// A lane's own shootdowns are what the per-lane TLB rule
			// replays; without any, these cases would not exercise it.
			if (tc.scheme == "Banshee LRU" || tc.mixed != nil) && shootdowns == 0 {
				t.Error("no lane shot down the TLBs")
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
