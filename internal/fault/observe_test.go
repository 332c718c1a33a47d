package fault

import (
	"context"
	"errors"
	"strings"
	"testing"

	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// TestInjectedCounts: each fired fault tallies exactly once under its
// mode, and every registry's exposition carries the tallies as labeled
// counters without any wiring. The counters are process-global, so
// assertions are delta-based.
func TestInjectedCounts(t *testing.T) {
	in := New(Plan{ErrRate: 1})
	run := in.Runner(func(ctx context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		return make([]stats.Sim, len(jobs)), nil
	})
	before := InjectedCount(Err)
	_, err := run(context.Background(), []runner.Job{{ID: "job-a"}})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := InjectedCount(Err); got != before+1 {
		t.Errorf("InjectedCount(Err) = %d, want %d", got, before+1)
	}

	r := obs.NewRegistry()
	snap := r.Snapshot()
	if got := uint64(snap[`banshee_faults_injected_total{mode="err"}`]); got != before+1 {
		t.Errorf(`banshee_faults_injected_total{mode="err"} = %d, want %d`, got, before+1)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `banshee_faults_injected_total{mode="panic"}`) {
		t.Error("panic-mode series missing from exposition")
	}
}

// TestInjectedCountsPerLayer: source and writer wrap sites tally too.
func TestInjectedCountsPerLayer(t *testing.T) {
	in := New(Plan{ShortRate: 1, FaultAfter: 1})
	before := InjectedCount(Short)
	w := in.Writer(&strings.Builder{}, "ckpt")
	if _, err := w.Write([]byte("abcdef")); !errors.Is(err, ErrInjected) {
		t.Fatalf("short write err = %v, want ErrInjected", err)
	}
	if got := InjectedCount(Short); got != before+1 {
		t.Errorf("InjectedCount(Short) = %d, want %d", got, before+1)
	}
}
