package mc

import (
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func TestMissRateTrackerColdStart(t *testing.T) {
	tr := NewMissRateTracker()
	if tr.Rate() != 1.0 {
		t.Fatalf("cold rate %v, want 1.0 (sample aggressively while cold)", tr.Rate())
	}
}

func TestMissRateTrackerWindow(t *testing.T) {
	tr := NewMissRateTracker()
	for i := 0; i < missRateWindow; i++ {
		if i == missRateWindow-1 && tr.Rate() != 1.0 {
			t.Fatalf("rate %v before the window closed, want the cold 1.0", tr.Rate())
		}
		tr.Observe(i < missRateWindow/4) // 25% misses
	}
	if got := tr.Rate(); got != 0.25 {
		t.Fatalf("rate %v, want 0.25", got)
	}
	// Next window all hits.
	for i := 0; i < missRateWindow; i++ {
		tr.Observe(false)
	}
	if got := tr.Rate(); got != 0 {
		t.Fatalf("rate %v, want 0 after all-hit window", got)
	}
}

func TestMissRateBoundsProperty(t *testing.T) {
	f := func(outcomes []bool) bool {
		tr := NewMissRateTracker()
		// Cycle the outcomes through two windows so the estimate snaps.
		for i := 0; len(outcomes) > 0 && i < 2*missRateWindow; i++ {
			tr.Observe(outcomes[i%len(outcomes)])
		}
		r := tr.Rate()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintTrackerPrior(t *testing.T) {
	var f FootprintTracker
	if f.Lines() != 16 {
		t.Fatalf("prior footprint %d, want 16", f.Lines())
	}
}

func TestFootprintTrackerConverges(t *testing.T) {
	var f FootprintTracker
	for i := 0; i < 200; i++ {
		f.Record(7)
	}
	// 7 rounds up to 8 at 4-line granularity.
	if f.Lines() != 8 {
		t.Fatalf("converged footprint %d, want 8", f.Lines())
	}
}

func TestFootprintTrackerClamps(t *testing.T) {
	var f FootprintTracker
	for i := 0; i < 100; i++ {
		f.Record(0)
	}
	if f.Lines() != 4 {
		t.Fatalf("lower clamp %d, want 4", f.Lines())
	}
	var g FootprintTracker
	for i := 0; i < 100; i++ {
		g.Record(200)
	}
	if g.Lines() != mem.LinesPerPage {
		t.Fatalf("upper clamp %d, want %d", g.Lines(), mem.LinesPerPage)
	}
}

func TestFootprintFourLineGranularity(t *testing.T) {
	f := func(vals []uint8) bool {
		var tr FootprintTracker
		for _, v := range vals {
			tr.Record(int(v % 65))
		}
		l := tr.Lines()
		return l%4 == 0 && l >= 4 && l <= mem.LinesPerPage
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTouchedBitmap(t *testing.T) {
	var b Touched
	if b.Count() != 0 {
		t.Fatal("fresh bitmap not empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(63) // idempotent
	if !b.Get(0) || !b.Get(63) || b.Get(1) {
		t.Fatal("Get wrong")
	}
	if b.Count() != 2 {
		t.Fatalf("count %d, want 2", b.Count())
	}
}

func TestTouchedCountProperty(t *testing.T) {
	f := func(idxs []uint8) bool {
		var b Touched
		seen := map[int]bool{}
		for _, i := range idxs {
			b.Set(int(i % 64))
			seen[int(i%64)] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
