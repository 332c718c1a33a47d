package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

// TestMetricsSumConsistentWithResults pins the sweep-level consistency
// contract: after a metered run, the job-state counters reconcile with
// the ResultSet, and the sim totals equal the field sums over the
// executed results — the same numbers the JSONL stream carries.
func TestMetricsSumConsistentWithResults(t *testing.T) {
	m := testMatrix("metered")
	r := obs.NewRegistry()
	e := Engine{Parallelism: 3, Metrics: r, JobRunner: Observed(r, 10_000, nil)}
	rs, err := e.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if got := uint64(snap[`banshee_jobs_total{state="done"}`]); got != uint64(rs.Executed) {
		t.Errorf("done counter = %d, want %d executed", got, rs.Executed)
	}
	if got := uint64(snap[`banshee_jobs_total{state="reused"}`]); got != uint64(rs.Cached) {
		t.Errorf("reused counter = %d, want %d cached", got, rs.Cached)
	}
	if got := snap[`banshee_jobs_total{state="failed"}`]; got != 0 {
		t.Errorf("failed counter = %g on a clean sweep", got)
	}
	// The matrix has no duplicate configs, so every record was executed:
	// the sim totals must sum to exactly the emitted results.
	var wantInstr, wantDCM uint64
	for _, rec := range rs.Records() {
		wantInstr += rec.Result.Instructions
		wantDCM += rec.Result.DCMisses
	}
	if got := uint64(snap["banshee_sim_instructions_total"]); got != wantInstr {
		t.Errorf("banshee_sim_instructions_total = %d, want %d (sum over results)", got, wantInstr)
	}
	if got := uint64(snap["banshee_sim_dc_misses_total"]); got != wantDCM {
		t.Errorf("banshee_sim_dc_misses_total = %d, want %d (sum over results)", got, wantDCM)
	}
	if got := uint64(snap["banshee_job_attempts_total"]); got != uint64(rs.Executed) {
		t.Errorf("attempts = %d, want %d (one per executed job)", got, rs.Executed)
	}
	if snap["banshee_epochs_total"] == 0 {
		t.Error("no epoch samples recorded during a metered sweep")
	}
	if snap["banshee_workers_busy"] != 0 {
		t.Errorf("workers busy = %g after the sweep, want 0", snap["banshee_workers_busy"])
	}
	if snap["banshee_flush_lag_jobs"] != 0 {
		t.Errorf("flush lag = %g after the sweep, want 0", snap["banshee_flush_lag_jobs"])
	}
}

// TestMetricsCountRetriesAndFailures drives a flaky custom JobRunner:
// the first attempt of every job fails, one job fails permanently.
// Attempt/retry/failure counters must reconcile exactly.
func TestMetricsCountRetriesAndFailures(t *testing.T) {
	m := testMatrix("flaky")
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	doomed := jobs[0].ID
	var mu sync.Mutex
	tries := map[string]int{}
	runner := func(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		job := jobs[0] // no ganging: every group is one job
		mu.Lock()
		tries[job.ID]++
		n := tries[job.ID]
		mu.Unlock()
		if job.ID == doomed || n == 1 {
			return nil, errors.New("injected")
		}
		return []stats.Sim{{Cycles: 1, Instructions: 1}}, nil
	}
	r := obs.NewRegistry()
	e := Engine{Parallelism: 2, Metrics: r, JobRunner: runner,
		Retry: RetryPolicy{MaxAttempts: 2}, KeepGoing: true}
	rs, err := e.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if got := uint64(snap[`banshee_jobs_total{state="failed"}`]); got != uint64(len(rs.Failed())) {
		t.Errorf("failed counter = %d, want %d", got, len(rs.Failed()))
	}
	if got := uint64(snap[`banshee_jobs_total{state="done"}`]); got != uint64(rs.Executed) {
		t.Errorf("done counter = %d, want %d", got, rs.Executed)
	}
	// Every executed job took 2 attempts (1 retry); the doomed job took
	// its full 2. attempts = 2 × (executed + failed), retries = half.
	wantAttempts := 2 * uint64(rs.Executed+len(rs.Failed()))
	if got := uint64(snap["banshee_job_attempts_total"]); got != wantAttempts {
		t.Errorf("attempts = %d, want %d", got, wantAttempts)
	}
	if got := uint64(snap["banshee_job_retries_total"]); got != wantAttempts/2 {
		t.Errorf("retries = %d, want %d", got, wantAttempts/2)
	}
}

// TestGangMetricsAndSimTotals: a ganged sweep's group/lane counters
// reconcile with the gang completions the progress log shows, and the
// sim totals equal the sums over the emitted results, every gang lane
// folded once.
func TestGangMetricsAndSimTotals(t *testing.T) {
	m := gangMatrix("gangmetrics")
	r := obs.NewRegistry()
	e := Engine{Parallelism: 2, GangWidth: 8, Metrics: r}
	rs, err := e.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if got := uint64(snap["banshee_gang_lanes_total"]); got != 4 {
		t.Errorf("gang lanes = %d, want 4 (the Alloy seed sweep)", got)
	}
	if got := uint64(snap["banshee_gang_groups_total"]); got != 1 {
		t.Errorf("gang groups = %d, want 1", got)
	}
	if snap["banshee_gang_fallbacks_total"] != 0 {
		t.Errorf("fallbacks = %g on a healthy run", snap["banshee_gang_fallbacks_total"])
	}
	var wantInstr uint64
	for _, rec := range rs.Records() {
		wantInstr += rec.Result.Instructions
	}
	if got := uint64(snap["banshee_sim_instructions_total"]); got != wantInstr {
		t.Errorf("sim instructions = %d, want %d (sum over results)", got, wantInstr)
	}
}

// TestTracerRecordsSweepTimeline: a traced sweep yields well-formed
// Chrome trace JSON with named worker lanes and one job span per
// executed job.
func TestTracerRecordsSweepTimeline(t *testing.T) {
	m := testMatrix("traced")
	tr := obs.NewTracer()
	e := Engine{Parallelism: 2, Tracer: tr}
	rs, err := e.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	jobSpans, threads := 0, 0
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "X" && strings.HasPrefix(ev.Name, "job "):
			jobSpans++
		case ev.Ph == "M":
			threads++
		}
	}
	if jobSpans != rs.Executed {
		t.Errorf("trace has %d job spans, want %d (one per executed job)", jobSpans, rs.Executed)
	}
	if threads == 0 {
		t.Error("no worker lanes named in the trace")
	}
}

// TestPeriodicProgressReplacesPerJobLines: with ProgressEvery set, the
// per-job "done ..." spam disappears in favor of rate-limited progress
// lines, while the final matrix summary (which resume tooling greps)
// still prints.
func TestPeriodicProgressReplacesPerJobLines(t *testing.T) {
	m := testMatrix("progress")
	var buf bytes.Buffer
	e := Engine{Parallelism: 2, Progress: &buf, ProgressEvery: time.Millisecond}
	if _, err := e.Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "done  ") {
		t.Errorf("per-job lines still present with ProgressEvery set:\n%s", out)
	}
	if !strings.Contains(out, "progress: ") {
		t.Errorf("no periodic progress line emitted:\n%s", out)
	}
	if !strings.Contains(out, "8/8 jobs") {
		t.Errorf("final progress line missing:\n%s", out)
	}
	if !strings.Contains(out, "matrix progress: 8 jobs") {
		t.Errorf("final matrix summary missing:\n%s", out)
	}
}
