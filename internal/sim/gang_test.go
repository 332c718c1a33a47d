package sim

import (
	"testing"

	"banshee/internal/trace"
	"banshee/internal/workload"
)

// countingSource counts the events drawn from each core's stream.
type countingSource struct {
	workload.Source
	next []uint64
}

func (s *countingSource) Next(core int) trace.Event {
	s.next[core]++
	return s.Source.Next(core)
}

// TestStreamPacing pins the front end's one pacing rule: an event is
// generated when the first lane needs it. No event is generated that no
// lane consumes — whether lanes step one event at a time or batch — and
// a lane that does not batch (Banshee, whose tag-buffer flushes shoot
// down the TLBs) holds only a few events per core, because each is
// translated at the instant it is consumed.
func TestStreamPacing(t *testing.T) {
	banshee := quickConfig("pagerank", "Banshee")
	alloy := quickConfig("pagerank", "Alloy 1")
	alloy.WarmupFrac = 0 // batch from the first event
	lane1 := alloy
	lane1.Seed = 43
	lane1.WarmupFrac = 0.25 // steps one event at a time until warmed
	alloy.WorkloadSeed, lane1.WorkloadSeed = 42, 42

	for _, tc := range []struct {
		name   string
		cfgs   []Config
		maxCap int // bound on every buffer's capacity; 0 = unchecked
	}{
		{"Banshee", []Config{banshee}, 16},
		{"batched", []Config{alloy}, 0},
		{"gang2", []Config{alloy, lane1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGang(tc.cfgs)
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{Source: g.gs.src, next: make([]uint64, len(g.gs.fe))}
			g.gs.src = src
			for done := false; !done; {
				if done, err = g.Step(stepQuantum); err != nil {
					t.Fatal(err)
				}
			}
			for ci, n := range src.next {
				for li := range g.Width() {
					if got := g.Lane(li).cores[ci].evIdx; got != n {
						t.Errorf("core %d: %d events generated, lane %d consumed %d", ci, n, li, got)
					}
				}
				f := &g.gs.fe[ci]
				if c := max(cap(f.gaps), cap(f.flags), cap(f.res)); tc.maxCap > 0 && c >= tc.maxCap {
					t.Errorf("core %d: stream buffers grew to %d events, want < %d", ci, c, tc.maxCap)
				}
			}
		})
	}
}
