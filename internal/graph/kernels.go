package graph

import (
	"fmt"

	"banshee/internal/util"
)

// Kernel is a resumable graph algorithm emitting its reference stream
// for one thread. Kernels loop forever (restarting the computation) so
// simulations of any length can draw from them.
type Kernel interface {
	// Next returns the next memory reference of this thread.
	Next() Ref
	// Name identifies the kernel.
	Name() string
}

// threadRange splits vertices across threads the way parallel graph
// frameworks do (contiguous ranges).
func threadRange(vertices, thread, threads int) (lo, hi int) {
	per := vertices / threads
	lo = thread * per
	hi = lo + per
	if thread == threads-1 {
		hi = vertices
	}
	return lo, hi
}

// PageRank emits one thread's stream of a pull-based PageRank
// iteration: sequentially read each owned vertex's row pointers, scan
// its edge list, gather ranks of sources (random vertex-array reads —
// the Zipf-skewed traffic FBR exploits), then write the new rank.
type PageRank struct {
	g        *Graph
	edges    edgeCursor
	lo, hi   int
	v        int
	e        uint32
	eEnd     uint32
	state    int
	gapShort int
}

// NewPageRank builds thread `thread` of `threads`.
func NewPageRank(g *Graph, thread, threads int) *PageRank {
	lo, hi := threadRange(g.Vertices, thread, threads)
	return &PageRank{g: g, edges: edgeCursor{g: g}, lo: lo, hi: hi, v: lo, gapShort: 6}
}

// Name implements Kernel.
func (k *PageRank) Name() string { return "pagerank" }

// Next implements Kernel.
func (k *PageRank) Next() Ref {
	g := k.g
	for {
		switch k.state {
		case 0: // read row pointer pair for vertex v
			if k.v >= k.hi {
				k.v = k.lo // next iteration of the algorithm
			}
			k.e = g.rowPtr[k.v]
			k.eEnd = g.rowPtr[k.v+1]
			k.state = 1
			return Ref{Gap: k.gapShort, Addr: g.rowPtrAddr(k.v)}
		case 1: // scan one edge, then gather the source's rank
			if k.e >= k.eEnd {
				k.state = 3
				continue
			}
			k.state = 2
			return Ref{Gap: 2, Addr: g.edgeAddr(k.e)}
		case 2: // gather rank[target]
			tgt := k.edges.at(k.e)
			k.e++
			k.state = 1
			return Ref{Gap: 4, Addr: g.valueAddr(tgt)}
		case 3: // write new rank, advance
			v := k.v
			k.v++
			k.state = 0
			return Ref{Gap: k.gapShort, Addr: g.value2Addr(uint32(v)), Write: true}
		}
	}
}

// BFS emits a graph500-style level-synchronous BFS: scan the current
// frontier (sequential), read each neighbor's visited flag (random),
// and write newly discovered vertices' parents. When the traversal
// exhausts, it restarts from a different root.
type BFS struct {
	g        *Graph
	edges    edgeCursor
	rng      *util.RNG
	frontier []uint32
	next     []uint32
	visited  []bool
	fi       int
	e        uint32
	eEnd     uint32
	tgt      uint32 // the edge target case 2 read, for case 3
	state    int
	restarts int
}

// NewBFS builds thread `thread`'s BFS stream; threads explore disjoint
// roots (a simplification of frontier partitioning that preserves the
// traffic pattern).
func NewBFS(g *Graph, thread, threads int, seed uint64) *BFS {
	b := &BFS{g: g, edges: edgeCursor{g: g}, rng: util.NewRNG(seed ^ uint64(thread)<<32 ^ 0xBF5)}
	b.reset()
	return b
}

func (b *BFS) reset() {
	if b.visited == nil {
		b.visited = make([]bool, b.g.Vertices)
	} else {
		clear(b.visited)
	}
	root := uint32(b.rng.Uint64n(uint64(b.g.Vertices)))
	b.frontier = b.frontier[:0]
	b.frontier = append(b.frontier, root)
	b.visited[root] = true
	b.fi = 0
	b.state = 0
	b.restarts++
}

// Name implements Kernel.
func (b *BFS) Name() string { return "graph500" }

// Next implements Kernel.
func (b *BFS) Next() Ref {
	g := b.g
	for {
		switch b.state {
		case 0: // pop next frontier vertex
			if b.fi >= len(b.frontier) {
				if len(b.next) == 0 {
					b.reset()
					continue
				}
				b.frontier, b.next = b.next, b.frontier[:0]
				b.fi = 0
			}
			v := b.frontier[b.fi]
			b.e = g.rowPtr[v]
			b.eEnd = g.rowPtr[v+1]
			b.fi++
			b.state = 1
			return Ref{Gap: 4, Addr: g.rowPtrAddr(int(v))}
		case 1: // scan one edge
			if b.e >= b.eEnd {
				b.state = 0
				continue
			}
			b.state = 2
			return Ref{Gap: 1, Addr: g.edgeAddr(b.e)}
		case 2: // check visited flag (random access)
			tgt := b.edges.at(b.e)
			b.e++
			b.tgt = tgt
			if !b.visited[tgt] {
				b.visited[tgt] = true
				b.next = append(b.next, tgt)
				b.state = 3
			} else {
				b.state = 1
			}
			return Ref{Gap: 2, Addr: g.valueAddr(tgt)}
		case 3: // write parent of newly discovered vertex
			b.state = 1
			return Ref{Gap: 2, Addr: g.value2Addr(b.tgt), Write: true}
		}
	}
}

// TriCount emits a triangle-counting stream: for each owned vertex,
// for each neighbor, intersect adjacency lists by scanning both
// (sequential reads of two edge ranges).
type TriCount struct {
	g      *Graph
	edges  edgeCursor
	lo, hi int
	v      int
	e      uint32
	eEnd   uint32
	f      uint32
	fEnd   uint32
	state  int
}

// NewTriCount builds thread `thread` of `threads`.
func NewTriCount(g *Graph, thread, threads int) *TriCount {
	lo, hi := threadRange(g.Vertices, thread, threads)
	return &TriCount{g: g, edges: edgeCursor{g: g}, lo: lo, hi: hi, v: lo}
}

// Name implements Kernel.
func (k *TriCount) Name() string { return "tri_count" }

// Next implements Kernel.
func (k *TriCount) Next() Ref {
	g := k.g
	for {
		switch k.state {
		case 0: // load vertex row
			if k.v >= k.hi {
				k.v = k.lo
			}
			k.e = g.rowPtr[k.v]
			k.eEnd = g.rowPtr[k.v+1]
			k.state = 1
			return Ref{Gap: 4, Addr: g.rowPtrAddr(k.v)}
		case 1: // next neighbor u; start scanning u's list
			if k.e >= k.eEnd {
				k.v++
				k.state = 0
				continue
			}
			u := k.edges.at(k.e)
			k.f = g.rowPtr[u]
			k.fEnd = g.rowPtr[u+1]
			k.e++
			k.state = 2
			return Ref{Gap: 2, Addr: g.edgeAddr(k.e - 1)}
		case 2: // intersect: scan u's adjacency sequentially
			if k.f >= k.fEnd {
				k.state = 1
				continue
			}
			k.f++
			return Ref{Gap: 1, Addr: g.edgeAddr(k.f - 1)}
		}
	}
}

// SGD emits a matrix-factorization stream over a bipartite rating
// graph: stream the edge (rating) list sequentially; for each rating
// read and write both endpoint factor vectors (random accesses with
// moderate skew).
type SGD struct {
	g     *Graph
	edges edgeCursor
	lo    uint32
	hi    uint32
	e     uint32
	state int
	vecEl int
	cur   uint32
}

// vecLen is the factor-vector length in 8-byte words (models the
// latent dimension; 8 words = one cache line).
const vecLen = 8

// NewSGD builds thread `thread`'s shard of the rating list.
func NewSGD(g *Graph, thread, threads int) *SGD {
	per := uint32(g.Edges() / threads)
	lo := uint32(thread) * per
	hi := lo + per
	if thread == threads-1 {
		hi = uint32(g.Edges())
	}
	return &SGD{g: g, edges: edgeCursor{g: g}, lo: lo, hi: hi, e: lo}
}

// Name implements Kernel.
func (k *SGD) Name() string { return "sgd" }

// Next implements Kernel.
func (k *SGD) Next() Ref {
	g := k.g
	for {
		switch k.state {
		case 0: // stream the next rating
			if k.e >= k.hi {
				k.e = k.lo
			}
			k.cur = k.edges.at(k.e)
			k.e++
			k.vecEl = 0
			k.state = 1
			return Ref{Gap: 3, Addr: g.edgeAddr(k.e - 1)}
		case 1: // read the item vector (vecLen words)
			if k.vecEl >= vecLen {
				k.vecEl = 0
				k.state = 2
				continue
			}
			k.vecEl++
			return Ref{Gap: 2, Addr: g.valueAddr(k.cur) + uint64(k.vecEl-1)*wordBytes}
		case 2: // update (write) the user vector
			if k.vecEl >= vecLen {
				k.state = 0
				continue
			}
			k.vecEl++
			return Ref{Gap: 3, Addr: g.value2Addr(k.cur) + uint64(k.vecEl-1)*wordBytes, Write: true}
		}
	}
}

// LSH emits a locality-sensitive-hashing stream: stream points
// (sequential feature reads), then probe a few hash buckets (random
// reads over the table region).
type LSH struct {
	g      *Graph
	rng    *util.RNG
	point  uint32
	el     int
	probes int
	state  int
}

// lshFeatures is the per-point feature words read sequentially.
const lshFeatures = 16

// lshProbes is the buckets probed per point.
const lshProbes = 4

// NewLSH builds thread `thread`'s stream.
func NewLSH(g *Graph, thread, threads int, seed uint64) *LSH {
	lo, _ := threadRange(g.Vertices, thread, threads)
	return &LSH{g: g, rng: util.NewRNG(seed ^ uint64(thread) ^ 0x15A), point: uint32(lo)}
}

// Name implements Kernel.
func (k *LSH) Name() string { return "lsh" }

// Next implements Kernel.
func (k *LSH) Next() Ref {
	g := k.g
	for {
		switch k.state {
		case 0: // sequential feature read
			if k.el >= lshFeatures {
				k.el = 0
				k.probes = 0
				k.state = 1
				continue
			}
			addr := g.edgeAddr(0) + (uint64(k.point)*lshFeatures+uint64(k.el))*wordBytes
			if addr >= g.span {
				addr %= g.span
			}
			k.el++
			return Ref{Gap: 4, Addr: addr}
		case 1: // random bucket probes
			if k.probes >= lshProbes {
				k.point++
				if int(k.point) >= g.Vertices {
					k.point = 0
				}
				k.state = 0
				continue
			}
			k.probes++
			bucket := k.rng.Uint64n(uint64(g.Vertices))
			return Ref{Gap: 6, Addr: g.valueAddr(uint32(bucket))}
		}
	}
}

// NewKernel builds the named kernel for one thread. Valid names:
// pagerank, graph500, tri_count, sgd, lsh.
func NewKernel(name string, g *Graph, thread, threads int, seed uint64) (Kernel, error) {
	switch name {
	case "pagerank":
		return NewPageRank(g, thread, threads), nil
	case "graph500":
		return NewBFS(g, thread, threads, seed), nil
	case "tri_count":
		return NewTriCount(g, thread, threads), nil
	case "sgd":
		return NewSGD(g, thread, threads), nil
	case "lsh":
		return NewLSH(g, thread, threads, seed), nil
	}
	return nil, fmt.Errorf("graph: unknown kernel %q", name)
}
