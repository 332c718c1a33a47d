package graph

import (
	"runtime"
	"testing"

	"banshee/internal/util"
)

// materialize is the reference edge array: the stored-edges build's
// fill loop, run serially over the graph's row pointers. Each chunk of
// buildChunk vertices draws its targets, in edge order, from its own
// stream, one draw per edge.
func materialize(cfg Config, rowPtr []uint32) []uint32 {
	support := cfg.Vertices
	if support > 1<<16 {
		support = 1 << 16
	}
	var table *util.ZipfTable
	if cfg.Skew > 0 {
		table = util.TableFor(support, cfg.Skew)
	}
	edges := make([]uint32, rowPtr[cfg.Vertices])
	nChunks := (cfg.Vertices + buildChunk - 1) / buildChunk
	for ci := 0; ci < nChunks; ci++ {
		crng := util.NewRNG(cfg.Seed ^ 0x6AF4 ^ (uint64(ci)+1)*0x9E3779B97F4A7C15)
		lo, hi := ci*buildChunk, (ci+1)*buildChunk
		if hi > cfg.Vertices {
			hi = cfg.Vertices
		}
		for e := rowPtr[lo]; e < rowPtr[hi]; e++ {
			var tgt uint64
			if table != nil {
				rank := uint64(table.Sample(crng))
				tgt = (rank * 0x9E3779B97F4A7C15) % uint64(cfg.Vertices)
			} else {
				tgt = crng.Uint64n(uint64(cfg.Vertices))
			}
			edges[e] = uint32(tgt)
		}
	}
	return edges
}

// fig4Graph is the substrate of fig4's tri_count_kernel workload
// (footprint scale 1/64): 762,600 vertices in 24 chunks, the last one
// partial.
var fig4Graph = Config{Vertices: 762_600, AvgDegree: 8, Skew: 0.9, Seed: 7919}

// TestImplicitEdgesMatchMaterialized checks every edge target the
// cursor recomputes against the materialized reference, through the
// sequential path (one cursor reading every edge in order), random
// seeks (one cursor jumping between random edges), and Neighbors (a
// seek then a short sequential run).
func TestImplicitEdgesMatchMaterialized(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{Vertices: 5000, AvgDegree: 6, Seed: 3}},
		{"small-support", Config{Vertices: 2000, AvgDegree: 8, Skew: 0.9, Seed: 1}},
		{"partial-last-chunk", Config{Vertices: 3*buildChunk + 1234, AvgDegree: 5, Skew: 1.05, Seed: 17}},
		{"uniform-chunks", Config{Vertices: 2*buildChunk + 7, AvgDegree: 3, Seed: 23}},
		{"fig4", fig4Graph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := build(tc.cfg)
			want := materialize(tc.cfg, g.rowPtr)
			if g.Edges() != len(want) {
				t.Fatalf("edge count %d, reference %d", g.Edges(), len(want))
			}
			seq := edgeCursor{g: g}
			for e := range want {
				if got := seq.at(uint32(e)); got != want[e] {
					t.Fatalf("sequential edge %d: target %d, reference %d", e, got, want[e])
				}
			}
			rng := util.NewRNG(tc.cfg.Seed)
			jump := edgeCursor{g: g}
			for i := 0; i < 20000; i++ {
				e := uint32(rng.Uint64n(uint64(len(want))))
				if got := jump.at(e); got != want[e] {
					t.Fatalf("seek to edge %d: target %d, reference %d", e, got, want[e])
				}
			}
			for i := 0; i < 2000; i++ {
				v := rng.Intn(g.Vertices)
				got, ref := g.Neighbors(v), want[g.rowPtr[v]:g.rowPtr[v+1]]
				if len(got) != len(ref) {
					t.Fatalf("vertex %d: %d neighbors, reference %d", v, len(got), len(ref))
				}
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("vertex %d neighbor %d: %d, reference %d", v, j, got[j], ref[j])
					}
				}
			}
		})
	}
}

// TestGraphRetainsNoEdgeArray pins the substrate's memory: a fig4-sized
// graph keeps its row pointers (4 B/vertex, 3.05 MB) and the fused
// alias cells (1 MB), never an edge array (4 B/edge, about 24 MB).
func TestGraphRetainsNoEdgeArray(t *testing.T) {
	util.TableFor(1<<16, fig4Graph.Skew) // process-wide, not the graph's
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := build(fig4Graph)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(g)
	const limit = 8 << 20
	if retained > limit {
		t.Fatalf("a %d-vertex, %d-edge graph retains %.1f MB of heap, want under %d MB",
			g.Vertices, g.Edges(), float64(retained)/(1<<20), limit>>20)
	}
	t.Logf("retained %.2f MB for %d vertices, %d edges", float64(retained)/(1<<20), g.Vertices, g.Edges())
}
