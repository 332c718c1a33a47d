package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"banshee/internal/registry"
	"banshee/internal/stats"
	"banshee/internal/workload"
)

// sessionTestConfig is a small config the stepper tests share.
func sessionTestConfig(wl string) Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.InstrPerCore = 50_000
	cfg.Seed = 13
	cfg.Workload = wl
	return cfg
}

// runStepped drives a fresh session for cfg in increments of step,
// poking the observation surface along the way (Progress and Snapshot
// must never perturb the simulation).
func runStepped(t *testing.T, cfg Config, scheme string, step uint64) stats.Sim {
	t.Helper()
	sess, err := NewSession(cfg, cfg.Workload, scheme)
	if err != nil {
		t.Fatalf("NewSession(%s): %v", scheme, err)
	}
	steps := 0
	for {
		done, err := sess.Step(step)
		if err != nil {
			t.Fatalf("Step(%s): %v", scheme, err)
		}
		if steps++; steps%3 == 0 {
			_ = sess.Progress()
			_ = sess.Snapshot()
		}
		if done {
			break
		}
	}
	st, err := sess.Result()
	if err != nil {
		t.Fatalf("Result(%s): %v", scheme, err)
	}
	return st
}

// TestStepEqualsRun pins the stepper's core contract: driving a session
// in small (and deliberately odd-sized) steps, with snapshots taken
// mid-flight, yields final statistics bit-identical to the one-shot Run
// path — for every registered scheme display name (Banshee 2M on the 2
// MB pages it requires).
func TestStepEqualsRun(t *testing.T) {
	for _, scheme := range registry.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			cfg := sessionTestConfig("pagerank")
			cfg.LargePages = scheme == "Banshee 2M"
			oneShot, err := Run(cfg, cfg.Workload, scheme)
			if err != nil {
				t.Fatal(err)
			}
			stepped := runStepped(t, cfg, scheme, 1777)
			if oneShot != stepped {
				t.Fatalf("stepped run diverged from one-shot run:\none-shot: %+v\nstepped:  %+v", oneShot, stepped)
			}
		})
	}
}

// TestStepEqualsRunWorkloadKinds covers the same identity across every
// registered workload kind: synthetic profiles, mixes, graph kernels,
// and recorded trace files.
func TestStepEqualsRunWorkloadKinds(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "mcf.btrc")
	cfg := sessionTestConfig("mcf")
	if err := workload.Record(tracePath, "mcf", workload.Config{
		Cores: cfg.Cores, Seed: cfg.Seed, Scale: cfg.Scale, Intensity: cfg.Intensity,
	}, cfg.InstrPerCore); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"mcf", "mix1", "pagerank_kernel", workload.FilePrefix + tracePath} {
		// The trace case gets a fixed name: its path lies under a
		// per-run temporary directory.
		name := wl
		if strings.HasPrefix(wl, workload.FilePrefix) {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			cfg := sessionTestConfig(wl)
			oneShot, err := Run(cfg, wl, "Banshee")
			if err != nil {
				t.Fatal(err)
			}
			stepped := runStepped(t, cfg, "Banshee", 911)
			if oneShot != stepped {
				t.Fatalf("stepped run diverged from one-shot run:\none-shot: %+v\nstepped:  %+v", oneShot, stepped)
			}
		})
	}
}

// TestOnEpochSeriesConsistency checks the epoch sampling mechanism:
// hooked runs stay bit-identical to unhooked ones, samples arrive at
// monotonically increasing retirement points roughly one epoch apart,
// and the per-epoch windows tile the run — they sum (with the partial
// tail) to the whole-run counters.
func TestOnEpochSeriesConsistency(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	plain, err := Run(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}
	const every = 10_000
	var series stats.Series
	sess.OnEpoch(every, func(s stats.Snapshot) { series = append(series, s) })
	hooked, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plain != hooked {
		t.Fatalf("epoch hook perturbed the run:\nplain:  %+v\nhooked: %+v", plain, hooked)
	}

	total := cfg.InstrPerCore * uint64(cfg.Cores)
	if want := total / every; uint64(len(series)) < want-1 || uint64(len(series)) > want+1 {
		t.Fatalf("got %d epoch samples for %d instructions at every=%d", len(series), total, every)
	}
	var prev, sumInstr uint64
	for i, s := range series {
		if s.Retired <= prev {
			t.Fatalf("sample %d: retirement not monotone (%d after %d)", i, s.Retired, prev)
		}
		// Samples land on the absolute k×every grid: each fires at the
		// first retirement boundary at or past a fresh multiple, so
		// consecutive samples occupy strictly increasing grid buckets
		// and overshoot never accumulates into drift.
		if s.Retired/every <= prev/every {
			t.Fatalf("sample %d at %d shares the %d-grid bucket with previous sample at %d",
				i, s.Retired, every, prev)
		}
		if s.Window.Instructions != s.Retired-prev {
			t.Fatalf("sample %d: window says %d instructions, positions say %d",
				i, s.Window.Instructions, s.Retired-prev)
		}
		if s.Window.L1Accesses == 0 {
			t.Fatalf("sample %d: empty window", i)
		}
		prev = s.Retired
		sumInstr += s.Window.Instructions
	}
	// The windows tile the run: back to back with no gap or overlap,
	// covering everything up to the last sample point.
	if sumInstr != prev {
		t.Fatalf("epoch windows cover %d instructions up to retirement point %d", sumInstr, prev)
	}
	if finalSnap := sess.Snapshot(); finalSnap.Phase != stats.PhaseDone {
		t.Fatalf("completed session reports phase %v", finalSnap.Phase)
	}
}

// TestSessionCancel pins cancellation semantics: a cancelled Run
// returns an error matching context.Canceled together with the partial
// measurement window, the window agrees with a post-cancel Snapshot,
// and the session is terminally stopped.
func TestSessionCancel(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	cfg.InstrPerCore = 2_000_000 // long enough that cancellation lands mid-run

	sess, err := NewSession(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	sess.OnEpoch(100_000, func(stats.Snapshot) {
		if fired++; fired == 3 {
			cancel()
		}
	})
	partial, err := sess.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if partial.Instructions == 0 || partial.Cycles == 0 {
		t.Fatalf("partial stats empty: %+v", partial)
	}
	p := sess.Progress()
	if p.Retired == 0 || p.Retired >= p.Total {
		t.Fatalf("cancelled mid-run but progress says %d of %d", p.Retired, p.Total)
	}
	// The returned window is exactly what a post-cancel Snapshot sees:
	// the run froze at the cancellation boundary.
	snap := sess.Snapshot()
	if snap.Window != partial {
		t.Fatalf("post-cancel snapshot diverges from returned partial stats:\nsnapshot: %+v\npartial:  %+v",
			snap.Window, partial)
	}
	// Terminal: further steps keep failing, results stay unavailable.
	if _, err := sess.Step(1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step after cancel returned %v", err)
	}
	if _, err := sess.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result after cancel returned %v", err)
	}
}

// TestRunAfterTerminalIgnoresContext pins that Run on a session that
// already reached a terminal state reports that state: a cancelled
// context cannot retroactively fail a finished run.
func TestRunAfterTerminalIgnoresContext(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	sess, err := NewSession(cfg, cfg.Workload, "NoCache")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := sess.Run(cancelled)
	if err != nil {
		t.Fatalf("Run on a completed session returned %v", err)
	}
	if got != want {
		t.Fatal("Run on a completed session returned different stats")
	}
}

// TestZeroWarmupMeasuresWholeRun pins WarmupFrac=0 semantics: no
// warmup window exists, the run measures from its first instruction
// (no counters or instructions excluded), and the phase reads
// "measure" from the start.
func TestZeroWarmupMeasuresWholeRun(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	cfg.WarmupFrac = 0
	sess, err := NewSession(cfg, cfg.Workload, "Banshee")
	if err != nil {
		t.Fatal(err)
	}
	if p := sess.Progress(); p.Phase != stats.PhaseMeasure {
		t.Fatalf("zero-warmup run starts in phase %v, want measure", p.Phase)
	}
	st, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.InstrPerCore * uint64(cfg.Cores)
	if st.Instructions < total {
		t.Fatalf("zero-warmup run reports %d instructions, want >= %d (nothing excluded)",
			st.Instructions, total)
	}
	if st.L1Accesses == 0 || st.Cycles == 0 {
		t.Fatalf("zero-warmup run lost counters: %+v", st)
	}
}

// TestSessionResultBeforeDone ensures Result refuses to hand out stats
// for an unfinished run.
func TestSessionResultBeforeDone(t *testing.T) {
	cfg := sessionTestConfig("pagerank")
	sess, err := NewSession(cfg, cfg.Workload, "NoCache")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Step(100); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Result(); err == nil {
		t.Fatal("Result on a running session did not error")
	}
}

// TestStepZeroAlloc pins the steady-state Step path allocation-free:
// once warm, advancing the simulation must not produce garbage — the
// stepper refactor must not tax the innermost loop. The prefetching
// cases cover a stream prefetcher arming on lbm's sequential sweeps.
func TestStepZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		workload, scheme string
		prefetch         int
	}{
		{"pagerank", "Banshee", 0},
		{"lbm", "Banshee", 4},
		{"lbm", "Alloy 1", 4},
	} {
		t.Run(fmt.Sprintf("%s/%s/pf%d", c.workload, c.scheme, c.prefetch), func(t *testing.T) {
			cfg := sessionTestConfig(c.workload)
			cfg.InstrPerCore = 200_000_000 // never finishes during the test
			cfg.Scale = 1.0 / 256          // small footprint: the warmup touches every page
			cfg.PrefetchDegree = c.prefetch
			sess, err := NewSession(cfg, cfg.Workload, c.scheme)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			// Warm to steady state: caches, MSHR slices, page table, TLBs,
			// prefetch and scheme scratch buffers all reach their
			// working-set size.
			if _, err := sess.Step(3_000_000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if _, err := sess.Step(2_000); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Step allocates %v per call, want 0", avg)
			}
		})
	}
}
