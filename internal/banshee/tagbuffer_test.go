package banshee

import (
	"testing"
	"testing/quick"
)

func TestTagBufferGeometry(t *testing.T) {
	tb := NewTagBuffer(1024, 8)
	if tb.Capacity() != 1024 {
		t.Fatalf("capacity %d", tb.Capacity())
	}
	for _, bad := range [][2]int{{0, 8}, {1024, 0}, {1000, 8}, {96, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", bad)
				}
			}()
			NewTagBuffer(bad[0], bad[1])
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	if tb.Lookup(42) {
		t.Fatal("empty buffer hit")
	}
	tb.InsertRemap(42)
	if !tb.Lookup(42) {
		t.Fatal("lookup after insert missed")
	}
}

func TestRemapFillTracking(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	if tb.RemapFill() != 0 {
		t.Fatal("fresh buffer not empty")
	}
	for i := uint64(0); i < 32; i++ {
		tb.InsertRemap(i)
	}
	if got := tb.RemapFill(); got != 0.5 {
		t.Fatalf("remap fill %v, want 0.5", got)
	}
	// Clean inserts must not count toward the flush threshold.
	tb.InsertClean(1000)
	if got := tb.RemapFill(); got != 0.5 {
		t.Fatalf("clean insert changed remap fill to %v", got)
	}
}

func TestUpdateInPlace(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	tb.InsertRemap(7)
	tb.InsertRemap(7) // page evicted again
	if !tb.Lookup(7) {
		t.Fatal("in-place update lost")
	}
	if tb.RemapFill() != 1.0/64 {
		t.Fatalf("duplicate insert double-counted: fill %v", tb.RemapFill())
	}
}

func TestCleanUpgradeToRemap(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	tb.InsertClean(9)
	if tb.RemapFill() != 0 {
		t.Fatal("clean entry counted as remap")
	}
	tb.InsertRemap(9)
	if tb.RemapFill() != 1.0/64 {
		t.Fatal("upgrade to remap not counted")
	}
}

func TestRemapEntriesPinned(t *testing.T) {
	// A set full of remap entries must reject new inserts rather than
	// evict un-flushed remaps (in hardware those mappings exist nowhere
	// else until the flush writes them to the PTEs).
	tb := NewTagBuffer(16, 2)                      // 8 sets, 2 ways
	set0 := func(i uint64) uint64 { return i * 8 } // all map to set 0
	if !tb.InsertRemap(set0(1)) || !tb.InsertRemap(set0(2)) {
		t.Fatal("initial inserts failed")
	}
	if tb.InsertRemap(set0(3)) {
		t.Fatal("insert into remap-pinned set succeeded")
	}
	// Clean entries are evictable: after draining, inserts work again.
	tb.DrainRemaps()
	if !tb.InsertRemap(set0(3)) {
		t.Fatal("insert after drain failed")
	}
}

func TestCleanEntriesEvictableLRU(t *testing.T) {
	tb := NewTagBuffer(16, 2) // 8 sets, 2 ways
	set0 := func(i uint64) uint64 { return i * 8 }
	tb.InsertClean(set0(1))
	tb.InsertClean(set0(2))
	tb.Lookup(set0(1)) // refresh 1
	tb.InsertClean(set0(3))
	if tb.Lookup(set0(2)) {
		t.Fatal("LRU clean entry survived")
	}
	if !tb.Lookup(set0(1)) {
		t.Fatal("MRU clean entry evicted")
	}
}

func TestDrainRemaps(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	tb.InsertRemap(1)
	tb.InsertRemap(2)
	tb.InsertClean(3)
	if n := tb.DrainRemaps(); n != 2 {
		t.Fatalf("drained %d entries, want 2", n)
	}
	if tb.RemapFill() != 0 {
		t.Fatal("remap count not cleared")
	}
	// Entries stay valid for lookups (they keep absorbing dirty-eviction
	// probes, §3.4).
	if !tb.Lookup(1) {
		t.Fatal("drained entry no longer valid")
	}
	// Second drain is empty.
	if tb.DrainRemaps() != 0 {
		t.Fatal("double drain returned entries")
	}
}

func TestBufferMappingConsistencyProperty(t *testing.T) {
	// Property: after any sequence of remap inserts, every page
	// remapped since the last drain is still buffered, and a drain
	// counts each such page once (remaps are never silently lost).
	f := func(pages []uint8) bool {
		tb := NewTagBuffer(64, 8)
		pending := map[uint64]bool{}
		for _, b := range pages {
			p := uint64(b)
			if !tb.InsertRemap(p) {
				if tb.DrainRemaps() != len(pending) {
					return false
				}
				// Drained entries become evictable (their mappings now
				// live in the PTEs), so the guarantee below only covers
				// remaps inserted after the drain.
				pending = map[uint64]bool{}
				if !tb.InsertRemap(p) {
					return false
				}
			}
			pending[p] = true
		}
		for p := range pending {
			if !tb.Lookup(p) {
				return false
			}
		}
		return tb.DrainRemaps() == len(pending)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	tb := NewTagBuffer(64, 8)
	tb.Lookup(5)
	tb.InsertRemap(5)
	tb.Lookup(5)
	h, m := tb.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("hits/misses %d/%d", h, m)
	}
}
