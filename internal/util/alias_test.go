package util

import (
	"math"
	"sync"
	"testing"
)

// chiSquare bins `counts` against the expected probabilities `pmf`
// (merging the tail so every bin expects >= minExpected draws) and
// returns the statistic and the degrees of freedom.
func chiSquare(counts []int, pmf []float64, draws int, minExpected float64) (chi2 float64, df int) {
	var obs, exp float64
	flush := func() {
		if exp > 0 {
			chi2 += (obs - exp) * (obs - exp) / exp
			df++
		}
		obs, exp = 0, 0
	}
	for k := range counts {
		obs += float64(counts[k])
		exp += pmf[k] * float64(draws)
		if exp >= minExpected {
			flush()
		}
	}
	flush()
	return chi2, df - 1
}

// chiSquareCritical approximates the upper critical value of the
// chi-square distribution at a very small alpha using the normal
// approximation chi2 ~ N(df, 2df): df + 4.5*sqrt(2df) corresponds to
// p < ~4e-6, far beyond any plausible sampler bug while still tight
// enough to catch a broken alias table. The seeds are fixed, so the
// test is deterministic regardless.
func chiSquareCritical(df int) float64 {
	return float64(df) + 4.5*math.Sqrt(2*float64(df))
}

// TestZipfAliasChiSquare is the goodness-of-fit proof that the alias
// sampler draws from the exact Zipf PMF.
func TestZipfAliasChiSquare(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{100, 1.0}, {1000, 0.8}, {5000, 0.2}, {64, 0}} {
		z := NewZipf(NewRNG(0xC41), tc.n, tc.s)
		const draws = 1_000_000
		counts := make([]int, tc.n)
		for i := 0; i < draws; i++ {
			counts[z.Next()]++
		}
		pmf := make([]float64, tc.n)
		for k := range pmf {
			pmf[k] = z.Prob(k)
		}
		chi2, df := chiSquare(counts, pmf, draws, 20)
		if crit := chiSquareCritical(df); chi2 > crit {
			t.Errorf("n=%d s=%v: chi2=%.1f df=%d exceeds critical %.1f", tc.n, tc.s, chi2, df, crit)
		}
	}
}

// TestZipfAliasMatchesCDF cross-checks the alias sampler against the
// retained CDF-inversion reference: identical exact PMFs, and the CDF
// sampler's empirical distribution passes the same goodness-of-fit
// gate, so the two are statistically interchangeable.
func TestZipfAliasMatchesCDF(t *testing.T) {
	const n, s = 500, 0.9
	alias := NewZipf(NewRNG(11), n, s)
	cdf := NewZipfCDF(NewRNG(11), n, s)
	for k := 0; k < n; k++ {
		if math.Abs(alias.Prob(k)-cdf.Prob(k)) > 1e-12 {
			t.Fatalf("PMF mismatch at rank %d: alias=%v cdf=%v", k, alias.Prob(k), cdf.Prob(k))
		}
	}
	const draws = 500_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[cdf.Next()]++
	}
	pmf := make([]float64, n)
	for k := range pmf {
		pmf[k] = alias.Prob(k)
	}
	chi2, df := chiSquare(counts, pmf, draws, 20)
	if crit := chiSquareCritical(df); chi2 > crit {
		t.Errorf("CDF reference: chi2=%.1f df=%d exceeds critical %.1f", chi2, df, crit)
	}
}

// TestZipfTableShared verifies the substrate cache: equal (n, s) pairs
// resolve to the same table instance, distinct pairs do not.
func TestZipfTableShared(t *testing.T) {
	a := TableFor(1234, 0.75)
	b := TableFor(1234, 0.75)
	if a != b {
		t.Fatal("identical (n, s) built two tables")
	}
	if TableFor(1234, 0.8) == a || TableFor(1235, 0.75) == a {
		t.Fatal("distinct (n, s) shared a table")
	}
}

// TestZipfTableConcurrent hammers the cached read path from many
// goroutines (the runMatrix pattern); run with -race this doubles as
// the lock-freedom safety check.
func TestZipfTableConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	tables := make([]*ZipfTable, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tbl := TableFor(4096, 1.1)
			rng := NewRNG(uint64(g))
			for i := 0; i < 10_000; i++ {
				if k := tbl.Sample(rng); k < 0 || k >= 4096 {
					t.Errorf("sample %d out of range", k)
					return
				}
			}
			tables[g] = tbl
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if tables[g] != tables[0] {
			t.Fatal("concurrent TableFor returned distinct tables")
		}
	}
}

// TestZipfAliasZeroAllocNext pins the sampling hot path at zero
// allocations per draw.
func TestZipfAliasZeroAllocNext(t *testing.T) {
	z := NewZipf(NewRNG(3), 100_000, 1.0)
	if avg := testing.AllocsPerRun(1000, func() { z.Next() }); avg != 0 {
		t.Fatalf("Zipf.Next allocates %v per op, want 0", avg)
	}
}

// TestZipfTableCell rebuilds Sample from the table's cells: a caller
// that copies the cells must draw exactly the ranks Sample draws.
func TestZipfTableCell(t *testing.T) {
	for _, n := range []int{1, 7, 1000} {
		tbl := TableFor(n, 0.9)
		a, b := NewRNG(3), NewRNG(3)
		for i := 0; i < 20000; i++ {
			u := b.Float64() * float64(n)
			c := int(u)
			if c >= n {
				c = n - 1
			}
			prob, alias := tbl.Cell(c)
			want := alias
			if u-float64(c) < prob {
				want = c
			}
			if got := tbl.Sample(a); got != want {
				t.Fatalf("n=%d draw %d: Sample %d, cells %d", n, i, got, want)
			}
		}
	}
}
