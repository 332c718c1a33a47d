// Package graph provides a synthetic graph substrate and the
// graph-analytics kernels of the paper's workload suite (§5.1.2,
// from [29]): PageRank, triangle counting, BFS (graph500), SGD on a
// bipartite rating graph, and LSH bucket probing.
//
// Unlike the parametric generators in internal/trace (which model a
// benchmark's *statistics*), these kernels walk a real graph — a CSR
// adjacency laid out in a flat address space — and emit the memory
// reference stream the actual algorithm would produce: sequential
// index/edge scans interleaved with power-law random vertex accesses.
// They exist as higher-fidelity alternatives ("<name>_kernel"
// workloads) to cross-check the parametric calibration; DESIGN.md §5
// discusses the substitution chain.
//
// Graphs are generated deterministically from a seed with a Zipfian
// degree/popularity skew, the property that makes frequency-based
// DRAM-cache replacement effective on these workloads. The row
// pointers are stored; every edge target is recomputed from its
// chunk's RNG stream when a kernel reads it (DESIGN.md §10).
package graph

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"banshee/internal/util"
)

// Ref is one memory reference emitted by a kernel. Gap counts the
// non-memory instructions preceding it (the kernel's compute density).
type Ref struct {
	Gap   int
	Addr  uint64
	Write bool
}

// Graph is a CSR adjacency over Vertices vertices, with a flat address
// layout that kernels walk:
//
//	[0, 8V)           vertex values (ranks, labels, visited flags)
//	[8V, 16V)         second vertex array (next ranks, parents)
//	[16V, 16V+8(V+1)) row pointers
//	[...,  +8E)       edge targets
//
// Only the row pointers are stored. Each edge target is a pure
// function of its index: edge e of chunk ci (buildChunk vertices) is
// draw e − chunkStart[ci] of that chunk's RNG stream, mapped to a
// vertex. Kernels read targets through an edgeCursor, on which a
// sequential read costs one draw and a jump one O(1) re-seek.
type Graph struct {
	Vertices int
	rowPtr   []uint32 // index into the edge array, len V+1
	// chunkStart[ci] is the first edge of build chunk ci (its first
	// vertex's row pointer); the last entry is the edge count.
	chunkStart []uint32
	seed       uint64 // chunk ci's stream is NewRNG(seed ^ (ci+1)·γ)
	// cells are the Zipf alias cells with both ranks already mapped to
	// their vertices; nil when targets are uniform.
	cells []cell

	valuesBase  uint64
	values2Base uint64
	rowPtrBase  uint64
	edgesBase   uint64
	span        uint64
}

// cell is one alias-table cell of the target distribution: a draw that
// lands in the cell yields keep when its fraction is below prob, and
// alias otherwise (util.ZipfTable.Sample's rule, on vertex ids).
type cell struct {
	prob        float64
	keep, alias uint32
}

// spread maps a popularity rank to its vertex, scattering the hot
// ranks over the vertex range.
func spread(rank int, vertices uint64) uint32 {
	return uint32((uint64(rank) * 0x9E3779B97F4A7C15) % vertices)
}

const wordBytes = 8

// Config sizes a synthetic graph.
type Config struct {
	Vertices  int
	AvgDegree int
	// Skew is the Zipf exponent of target-vertex popularity (hub
	// structure). 0 disables skew.
	Skew float64
	Seed uint64
}

// The substrate cache holds recently built graphs, keyed by full
// Config (which includes the seed, so the cache is seed-keyed and
// deterministic). A Graph is immutable after construction — kernels
// only read it — so sharing one instance across runs, cores, and
// parallel experiment workers is safe. The cache is a bounded LRU:
// long-running sweeps touch an unbounded stream of configs (scale,
// seed, and footprint all key differently), so retention must be
// capped; within a batch the engine groups jobs by workload, so the
// working set stays far below the cap and eviction only trims
// substrates the sweep has moved past.
//
// Concurrent first builds of the same config are deduplicated: one
// caller builds while the rest wait on the entry's ready channel.
type cacheEntry struct {
	cfg   Config
	g     *Graph
	ready chan struct{} // closed once g is populated
}

var cacheState struct {
	mu      sync.Mutex
	limit   int
	entries map[Config]*list.Element
	order   *list.List // front = most recently used, of *cacheEntry
}

// DefaultCacheLimit bounds the substrate cache (in graphs, not bytes:
// sweep configs at one scale are similar sizes, so an entry count is a
// faithful proxy and keeps eviction O(1)).
const DefaultCacheLimit = 16

func init() {
	cacheState.limit = DefaultCacheLimit
	cacheState.entries = map[Config]*list.Element{}
	cacheState.order = list.New()
}

// SetCacheLimit resizes the substrate cache, evicting down to n
// immediately, and returns the previous limit. n < 1 is clamped to 1.
func SetCacheLimit(n int) int {
	if n < 1 {
		n = 1
	}
	cacheState.mu.Lock()
	defer cacheState.mu.Unlock()
	prev := cacheState.limit
	cacheState.limit = n
	evictLocked()
	return prev
}

// evictLocked trims least-recently-used entries over the limit. Waiters
// on an evicted in-flight entry still complete through their entry
// pointer; the entry just stops being served to new callers.
func evictLocked() {
	for cacheState.order.Len() > cacheState.limit {
		back := cacheState.order.Back()
		cacheState.order.Remove(back)
		delete(cacheState.entries, back.Value.(*cacheEntry).cfg)
	}
}

// New returns the deterministic synthetic graph for cfg, building it on
// first use and serving the shared cached instance afterwards. The
// returned graph must not be mutated.
func New(cfg Config) *Graph {
	cacheState.mu.Lock()
	if el, ok := cacheState.entries[cfg]; ok {
		cacheState.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		cacheState.mu.Unlock()
		<-e.ready
		if e.g == nil {
			panic(fmt.Sprintf("graph: build of %+v failed in another goroutine", cfg))
		}
		return e.g
	}
	e := &cacheEntry{cfg: cfg, ready: make(chan struct{})}
	cacheState.entries[cfg] = cacheState.order.PushFront(e)
	evictLocked()
	cacheState.mu.Unlock()

	// If build panics (bad config), drop the entry and wake waiters so
	// the cache is not poisoned for retries with a corrected config.
	defer func() {
		if e.g == nil {
			cacheState.mu.Lock()
			if el, ok := cacheState.entries[cfg]; ok && el.Value.(*cacheEntry) == e {
				cacheState.order.Remove(el)
				delete(cacheState.entries, cfg)
			}
			cacheState.mu.Unlock()
			close(e.ready)
		}
	}()
	e.g = build(cfg)
	close(e.ready)
	return e.g
}

// buildChunk is the vertex-range granule of edge generation: each
// chunk's targets come from their own seed-derived RNG stream. It is
// fixed, so the edge targets of a given Config never change.
const buildChunk = 1 << 15

// builds counts substrate constructions since process start; tests use
// it to assert that shared consumers (batch worker queues, gang lanes)
// dedupe builds instead of re-deriving the same graph.
var builds atomic.Uint64

// Builds returns how many times a graph substrate has actually been
// built (cache hits and in-flight waits excluded).
func Builds() uint64 { return builds.Load() }

// build generates a graph from scratch.
func build(cfg Config) *Graph {
	if cfg.Vertices <= 0 || cfg.AvgDegree <= 0 {
		panic(fmt.Sprintf("graph: bad config %+v", cfg))
	}
	builds.Add(1)
	rng := util.NewRNG(cfg.Seed ^ 0x6AF4)
	g := &Graph{Vertices: cfg.Vertices, seed: cfg.Seed ^ 0x6AF4}
	nEdges := cfg.Vertices * cfg.AvgDegree

	// Degree sequence: mild skew on out-degrees, strong skew on targets
	// (hubs receive many edges) — the R-MAT-like shape of real graphs.
	// Draw the out-degrees and lay out the CSR row pointers.
	g.rowPtr = make([]uint32, cfg.Vertices+1)
	perVertex := cfg.AvgDegree
	total := 0
	for v := 0; v < cfg.Vertices; v++ {
		g.rowPtr[v] = uint32(total)
		deg := perVertex/2 + rng.Intn(perVertex+1)
		if total+deg > nEdges {
			deg = nEdges - total
		}
		total += deg
	}
	g.rowPtr[cfg.Vertices] = uint32(total)

	nChunks := (cfg.Vertices + buildChunk - 1) / buildChunk
	g.chunkStart = make([]uint32, nChunks+1)
	for ci := range g.chunkStart {
		g.chunkStart[ci] = g.rowPtr[min(ci*buildChunk, cfg.Vertices)]
	}

	// Target popularity: Zipf over the first min(V, 2^16) ranks, each
	// rank spread to its vertex once here rather than on every read.
	if cfg.Skew > 0 {
		table := util.TableFor(min(cfg.Vertices, 1<<16), cfg.Skew)
		g.cells = make([]cell, table.N())
		for i := range g.cells {
			prob, alias := table.Cell(i)
			g.cells[i] = cell{prob: prob, keep: spread(i, uint64(cfg.Vertices)), alias: spread(alias, uint64(cfg.Vertices))}
		}
	}

	v := uint64(cfg.Vertices)
	g.valuesBase = 0
	g.values2Base = v * wordBytes
	g.rowPtrBase = 2 * v * wordBytes
	g.edgesBase = g.rowPtrBase + (v+1)*wordBytes
	g.span = g.edgesBase + uint64(total)*wordBytes
	return g
}

// target draws the next edge target from a chunk stream: a Zipf rank
// through the fused alias cells (util.ZipfTable.Sample's arithmetic,
// one draw), or a uniform vertex without skew.
func (g *Graph) target(r *util.RNG) uint32 {
	if g.cells == nil {
		return uint32(r.Uint64n(uint64(g.Vertices)))
	}
	n := len(g.cells)
	u := r.Float64() * float64(n)
	i := int(u)
	if i >= n { // guard u == ~1.0 after rounding
		i = n - 1
	}
	c := &g.cells[i]
	if u-float64(i) < c.prob {
		return c.keep
	}
	return c.alias
}

// cursorBatch is how many targets a cursor draws at once. Each
// target loads one random alias cell; drawing a batch in one loop keeps
// those loads independent, so their cache misses overlap.
const cursorBatch = 8

// edgeCursor reads edge targets for one kernel thread. It holds the
// targets of a short run of edges, drawn together; reading past the run
// draws the next one from the same chunk stream. Any other index (or a
// chunk boundary) re-seeks first: a binary search over chunkStart, then
// a fresh chunk stream skipped forward in O(1). The zero cursor of a
// graph seeks on its first read.
type edgeCursor struct {
	g      *Graph
	lo, hi uint32   // buf holds the targets of edges [lo, hi)
	end    uint32   // first edge past the stream's chunk
	rng    util.RNG // its next draw yields edge hi
	buf    [cursorBatch]uint32
}

// at returns the target of edge e.
func (c *edgeCursor) at(e uint32) uint32 {
	if e-c.lo >= c.hi-c.lo { // e outside [lo, hi)
		c.fill(e)
	}
	return c.buf[e-c.lo]
}

// fill draws the targets of the run of edges starting at e, re-seeking
// unless e is where the stream already stands.
func (c *edgeCursor) fill(e uint32) {
	if e != c.hi || e >= c.end {
		c.seek(e)
	}
	n := min(c.end-e, cursorBatch)
	for i := range n {
		c.buf[i] = c.g.target(&c.rng)
	}
	c.lo, c.hi = e, e+n
}

// seek positions the stream so its next draw yields edge e.
func (c *edgeCursor) seek(e uint32) {
	g := c.g
	// The chunk holding e is the first whose end lies past e (empty
	// chunks end where they start, so they are skipped).
	lo, hi := 0, len(g.chunkStart)-2
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.chunkStart[mid+1] > e {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	c.rng = *util.NewRNG(g.seed ^ (uint64(lo)+1)*0x9E3779B97F4A7C15)
	c.rng.Skip(uint64(e - g.chunkStart[lo]))
	c.end = g.chunkStart[lo+1]
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return int(g.rowPtr[g.Vertices]) }

// FootprintBytes returns the flat layout's span.
func (g *Graph) FootprintBytes() uint64 { return g.span }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int {
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// Neighbors returns a fresh copy of v's adjacency list.
func (g *Graph) Neighbors(v int) []uint32 {
	c := edgeCursor{g: g}
	out := make([]uint32, 0, g.Degree(v))
	for e := g.rowPtr[v]; e < g.rowPtr[v+1]; e++ {
		out = append(out, c.at(e))
	}
	return out
}

// Address helpers used by the kernels.
func (g *Graph) valueAddr(v uint32) uint64  { return g.valuesBase + uint64(v)*wordBytes }
func (g *Graph) value2Addr(v uint32) uint64 { return g.values2Base + uint64(v)*wordBytes }
func (g *Graph) rowPtrAddr(v int) uint64    { return g.rowPtrBase + uint64(v)*wordBytes }
func (g *Graph) edgeAddr(i uint32) uint64   { return g.edgesBase + uint64(i)*wordBytes }
