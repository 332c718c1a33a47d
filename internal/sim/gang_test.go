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
// lane consumes — whether lanes step one event at a time, batch, or
// both over one stream — and a lane that does not batch (Banshee, whose
// shootdowns stall every core) alone holds only a few events per core,
// because each is generated at the instant it is consumed.
func TestStreamPacing(t *testing.T) {
	banshee := quickConfig("pagerank", "Banshee")
	alloy := quickConfig("pagerank", "Alloy 1")
	alloy.WarmupFrac = 0 // batch from the first event
	lane1 := alloy
	lane1.Seed = 43
	lane1.WarmupFrac = 0.25 // steps one event at a time until warmed
	alloy.WorkloadSeed, lane1.WorkloadSeed = 42, 42
	shooter := quickConfig("pagerank", "Banshee LRU") // shoots down the TLBs
	shooter.WorkloadSeed = 42

	for _, tc := range []struct {
		name   string
		cfgs   []Config
		maxLen int // bound on every ring's length; 0 = unchecked
	}{
		{"Banshee", []Config{banshee}, 16},
		{"batched", []Config{alloy}, 0},
		{"gang2", []Config{alloy, lane1}, 0},
		{"mixed", []Config{shooter, alloy}, 0},
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
				if n := max(len(f.evs.buf), len(f.res.buf)); tc.maxLen > 0 && n >= tc.maxLen {
					t.Errorf("core %d: stream rings grew to %d records, want < %d", ci, n, tc.maxLen)
				}
			}
		})
	}
}

// TestGangNonBatchingLanes: Banshee, HMA and modifier lanes run in a
// gang beside lanes that batch, but never batch themselves — Banshee's
// shootdowns and HMA's remap epochs stall every core, and a modifier
// may wrap anything around its scheme — while the plain Alloy lane
// batches. Every lane's statistics match its stand-alone run.
func TestGangNonBatchingLanes(t *testing.T) {
	schemes := []string{"Banshee", "HMA", "Alloy 1+BATMAN", "Alloy 1"}
	cfgs := make([]Config, len(schemes))
	for i, name := range schemes {
		cfgs[i] = quickConfig("mcf", name)
		cfgs[i].InstrPerCore = 60_000
		cfgs[i].Seed = uint64(i + 1)
		cfgs[i].WorkloadSeed = 42
	}
	g, err := NewGang(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range schemes {
		if want := name == "Alloy 1"; g.Lane(i).batch != want {
			t.Errorf("%s lane batches %v, want %v", name, g.Lane(i).batch, want)
		}
	}
	got, err := g.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		sess, err := NewSessionConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s lane diverged from its stand-alone run\n gang: %+v\n solo: %+v", schemes[i], got[i], want)
		}
	}
}
