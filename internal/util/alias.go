package util

import (
	"math"
	"sync"
)

// ZipfTable is the immutable half of a Zipf sampler: the exact PMF of
// the distribution plus the Walker/Vose alias tables that make drawing
// from it O(1). A table depends only on (n, s), never on an RNG stream,
// so one table can back any number of concurrent samplers — every core
// of every parallel simulation shares the same table for a given
// (support, exponent) pair.
//
// Tables are built once and cached process-wide (see TableFor); all
// fields are read-only after construction, making the cached read path
// safe without locking.
type ZipfTable struct {
	n     int
	s     float64
	pmf   []float64 // exact probability of each rank, sums to 1
	prob  []float64 // alias acceptance thresholds, scaled to [0,1)
	alias []int32   // alias targets
}

// tableKey identifies a table in the cache.
type tableKey struct {
	n int
	s float64
}

// zipfTables caches built tables keyed by (n, s). sync.Map gives the
// lock-free read path wanted by parallel experiment workers: after the
// first run of a sweep, every subsequent simulation's NewZipf is one
// atomic load.
var zipfTables sync.Map // tableKey → *ZipfTable

// TableFor returns the shared alias table for support n and exponent s,
// building and caching it on first use. It panics if n <= 0 or s < 0.
func TableFor(n int, s float64) *ZipfTable {
	if n <= 0 {
		panic("util: Zipf table with n <= 0")
	}
	if s < 0 {
		panic("util: Zipf table with s < 0")
	}
	key := tableKey{n: n, s: s}
	if t, ok := zipfTables.Load(key); ok {
		return t.(*ZipfTable)
	}
	// Two goroutines may race to build the same table; construction is
	// deterministic, so whichever wins the store is equivalent.
	t, _ := zipfTables.LoadOrStore(key, newZipfTable(n, s))
	return t.(*ZipfTable)
}

// newZipfTable builds the PMF and alias tables for rank probabilities
// proportional to 1/(k+1)^s over [0, n).
func newZipfTable(n int, s float64) *ZipfTable {
	pmf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		pmf[k] = 1.0 / math.Pow(float64(k+1), s)
		sum += pmf[k]
	}
	inv := 1.0 / sum
	for k := range pmf {
		pmf[k] *= inv
	}

	// Vose's alias construction: split ranks into those with scaled
	// probability below 1 (small) and above (large); each table cell
	// pairs one small rank with the excess of a large one.
	t := &ZipfTable{
		n:     n,
		s:     s,
		pmf:   pmf,
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for k := 0; k < n; k++ {
		scaled[k] = pmf[k] * float64(n)
		if scaled[k] < 1 {
			small = append(small, int32(k))
		} else {
			large = append(large, int32(k))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[l] = scaled[l]
		t.alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers are within floating-point error of exactly 1.
	for _, g := range large {
		t.prob[g] = 1
		t.alias[g] = g
	}
	for _, l := range small {
		t.prob[l] = 1
		t.alias[l] = l
	}
	return t
}

// N returns the support size.
func (t *ZipfTable) N() int { return t.n }

// Prob returns the exact probability mass of rank k.
func (t *ZipfTable) Prob(k int) float64 {
	if k < 0 || k >= t.n {
		return 0
	}
	return t.pmf[k]
}

// Cell returns alias-table cell i, 0 ≤ i < N(): Sample keeps rank i
// when the fractional part of its scaled draw is below prob and
// returns rank alias otherwise. Callers that remap ranks can fold the
// remapping into a copy of the cells and sample from that copy.
func (t *ZipfTable) Cell(i int) (prob float64, alias int) {
	return t.prob[i], int(t.alias[i])
}

// Sample draws one rank from the table using r's stream: one uniform
// double selects both the table cell (integer part of u·n) and the
// biased coin (fractional part) — O(1), no search.
func (t *ZipfTable) Sample(r *RNG) int {
	u := r.Float64() * float64(t.n)
	i := int(u)
	if i >= t.n { // guard u == ~1.0 after rounding
		i = t.n - 1
	}
	if u-float64(i) < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}
