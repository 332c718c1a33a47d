package util

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestHash64IsMixedFNV pins the construction: FNV-64a from the
// standard library, then fmix64, so draws keyed by existing strings
// stay bit-identical to the per-package hashes this replaced.
func TestHash64IsMixedFNV(t *testing.T) {
	for _, key := range []string{"", "a", "7|GET|/v1/sweeps|3", "proxy|1|42"} {
		h := fnv.New64a()
		h.Write([]byte(key))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		if got := Hash64(key); got != x {
			t.Errorf("Hash64(%q) = %#x, want %#x", key, got, x)
		}
	}
}

// TestHashUnitTrailingDigitIndependence: keys differing only in a
// trailing counter must draw far apart — raw FNV-64a puts them within
// ~1e-7 of each other.
func TestHashUnitTrailingDigitIndependence(t *testing.T) {
	seen := map[int]bool{}
	for i := 1; i <= 9; i++ {
		u := HashUnit(fmt.Sprintf("abc123|%d", i))
		if u < 0 || u >= 1 {
			t.Fatalf("draw %v out of [0,1)", u)
		}
		seen[int(u*10)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("9 trailing-digit keys landed in only %d of 10 deciles", len(seen))
	}
}
