package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// countLocal wraps local, counting the jobs it is handed.
func countLocal(n *atomic.Int64, local runner.JobRunner) runner.JobRunner {
	return func(ctx context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		n.Add(int64(len(jobs)))
		return local(ctx, jobs)
	}
}

// runSpec runs the spec's jobs through eng into a fresh sink and
// returns the sink's bytes and the result set.
func runSpec(t *testing.T, spec Spec, eng runner.Engine) ([]byte, *runner.ResultSet) {
	t.Helper()
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := runner.OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng.Sink = sink
	rs, err := eng.RunJobs(context.Background(), spec.Name, spec.BaseSeed(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b, rs
}

// TestBrokerDeclineRunsLocally: an offer nobody takes — no worker
// attached, or an attached worker that never claims it — runs the job
// on the sweep's own runner, leaving the run byte-identical to one
// without a broker; a gang is never offered at all.
func TestBrokerDeclineRunsLocally(t *testing.T) {
	spec := testSpec("broker-decline")
	want := localBytes(t, spec)
	for _, attached := range []bool{false, true} {
		reg := obs.NewRegistry()
		b := NewBroker(40*time.Millisecond, reg)
		if attached {
			b.Lease(context.Background(), "idle", time.Millisecond) // polls once, never claims
		}
		var local atomic.Int64
		got, _ := runSpec(t, spec, runner.Engine{Parallelism: 2, Metrics: reg,
			JobRunner: b.runner(reg, countLocal(&local, runner.Simulate))})
		if !bytes.Equal(got, want) {
			t.Fatalf("attached=%v: declined run diverged: %d vs %d bytes", attached, len(got), len(want))
		}
		snap := reg.Snapshot()
		if local.Load() != 8 || snap["banshee_remote_attempts_total"] != 0 {
			t.Fatalf("attached=%v: %d local jobs, %v remote attempts; want 8 and 0",
				attached, local.Load(), snap["banshee_remote_attempts_total"])
		}
		wantDeclined := 0.0
		if attached {
			wantDeclined = 8
		}
		if snap["sweepd_offers_declined_total"] != wantDeclined {
			t.Fatalf("attached=%v: %v offers declined, want %v", attached, snap["sweepd_offers_declined_total"], wantDeclined)
		}
	}

	// A two-lane group goes straight to local: with a worker attached,
	// an offer would have dangled and been counted as declined.
	reg := obs.NewRegistry()
	b := NewBroker(40*time.Millisecond, reg)
	b.Lease(context.Background(), "idle", time.Millisecond)
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var local atomic.Int64
	stub := func(_ context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		return make([]stats.Sim, len(jobs)), nil
	}
	if _, err := b.runner(reg, countLocal(&local, stub))(context.Background(), jobs[:2]); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); local.Load() != 2 || snap["sweepd_offers_declined_total"] != 0 {
		t.Fatalf("gang: %d local jobs, %v offers declined; want 2 and 0", local.Load(), snap["sweepd_offers_declined_total"])
	}
}

// TestBrokerRemoteFoldsAndCounts: attempts an attached worker runs are
// counted on the sweep's registry — one failure included, which the
// engine retries — and their results fold into the sim totals, so the
// totals still equal the sums over the emitted records, and the bytes
// equal a local run's.
func TestBrokerRemoteFoldsAndCounts(t *testing.T) {
	spec := testSpec("broker-remote")
	want := localBytes(t, spec)

	reg := obs.NewRegistry()
	b := NewBroker(5*time.Second, reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var served atomic.Int64 // outcomes the broker accepted
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for ctx.Err() == nil {
			id, job, _, ok := b.Lease(ctx, "w", 50*time.Millisecond)
			if !ok {
				continue
			}
			var st stats.Sim
			err := errors.New("synthetic remote failure")
			if served.Load() > 0 {
				var sts []stats.Sim
				if sts, err = runner.Simulate(ctx, []runner.Job{job}); err == nil {
					st = sts[0]
				}
			}
			if b.Resolve(id, job.ID, st, err) == nil {
				served.Add(1)
			}
		}
	}()
	waitFor(t, func() bool { return b.Workers() > 0 })

	var local atomic.Int64
	got, rs := runSpec(t, spec, runner.Engine{Parallelism: 2, Metrics: reg,
		Retry:     runner.RetryPolicy{MaxAttempts: 2},
		JobRunner: b.runner(reg, countLocal(&local, runner.Observed(reg, 0, nil)))})
	cancel()
	<-workerDone
	if !bytes.Equal(got, want) {
		t.Fatalf("remote run diverged: %d vs %d bytes", len(got), len(want))
	}
	snap := reg.Snapshot()
	remote := snap["banshee_remote_attempts_total"]
	if served.Load() < 2 || remote != float64(served.Load()) || snap["sweepd_remote_results_total"] != remote {
		t.Fatalf("remote attempts %v, remote results %v, worker outcomes accepted %d; want equal and at least 2",
			remote, snap["sweepd_remote_results_total"], served.Load())
	}
	if snap["banshee_remote_attempt_failures_total"] != 1 {
		t.Fatalf("remote failures = %v, want 1", snap["banshee_remote_attempt_failures_total"])
	}
	if attempts := remote + float64(local.Load()); attempts != 9 || snap["banshee_job_attempts_total"] != 9 {
		t.Fatalf("%v remote + %d local attempts, engine counted %v; want 9 (8 jobs, 1 retry)",
			remote, local.Load(), snap["banshee_job_attempts_total"])
	}
	var wantInstr, wantCycles uint64
	for _, rec := range rs.Records() {
		wantInstr += rec.Result.Instructions
		wantCycles += rec.Result.Cycles
	}
	if got := uint64(snap["banshee_sim_instructions_total"]); got != wantInstr {
		t.Errorf("banshee_sim_instructions_total = %d, want %d (sum over results)", got, wantInstr)
	}
	if got := uint64(snap["banshee_sim_cycles_total"]); got != wantCycles {
		t.Errorf("banshee_sim_cycles_total = %d, want %d (sum over results)", got, wantCycles)
	}
}

// TestWorkerRejectsMismatchedJob: a leased job whose config does not
// hash to its ID is not simulated; the worker reports it as a failed
// attempt under the lease, so the daemon's Dispatch resolves at once.
func TestWorkerRejectsMismatchedJob(t *testing.T) {
	_, jobs := mustJobs(t, testSpec("worker-mismatch"))
	job := jobs[0]
	job.ID = runner.JobKey(jobs[1].Config)
	reports := make(chan LeaseUpdate, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/lease", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, LeaseGrant{Lease: "l-1", TTLMs: 1000, Job: job})
	})
	mux.HandleFunc("POST /v1/workers/result", func(w http.ResponseWriter, r *http.Request) {
		var upd LeaseUpdate
		json.NewDecoder(r.Body).Decode(&upd)
		reports <- upd
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	wk := &Worker{Client: c}
	if err := wk.pullOne(context.Background(), "w/0", time.Second); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("pullOne = %v, want a config-hash error", err)
	}
	upd := <-reports
	if upd.Lease != "l-1" || upd.Job != job.ID || upd.Result != nil || !strings.Contains(upd.Error, "hashes to") {
		t.Fatalf("report = %+v, want a failed attempt for lease l-1, job %s", upd, job.ID)
	}
}

// TestAcceptedReportIsTheOutcome: a report aimed at its lease's
// deadline, within a millisecond either side, races Dispatch's expiry
// timer, and whichever way the race goes the broker answers it
// consistently. Either Resolve accepts the report, Dispatch returns
// that outcome as handled, and a redelivery succeeds too; or Resolve
// refuses it with ErrLeaseGone and Dispatch declines, sending the job
// back for a local run. A report accepted and then thrown away — the
// worker told 204, the job re-run locally, its redelivery told 410 —
// fails the round.
func TestAcceptedReportIsTheOutcome(t *testing.T) {
	const rounds = 100
	b := brokerWithWorker(t, 20*time.Millisecond)
	accepted := 0
	for i := 0; i < rounds; i++ {
		jobID := fmt.Sprintf("job-race-%d", i)
		id, done := dispatchOne(t, b, runner.Job{ID: jobID})
		b.mu.Lock()
		deadline := b.leases[id].deadline
		b.mu.Unlock()
		aim := deadline.Add(time.Duration(i%21-10) * 100 * time.Microsecond)
		time.Sleep(time.Until(aim))
		want := stats.Sim{Cycles: uint64(i + 1)}
		err := b.Resolve(id, jobID, want, nil)
		r := <-done
		switch {
		case err == nil:
			accepted++
			if !r.handled || r.err != nil || r.st.Cycles != want.Cycles {
				t.Fatalf("round %d: report accepted, but Dispatch returned handled=%v err=%v cycles=%d",
					i, r.handled, r.err, r.st.Cycles)
			}
			if err := b.Resolve(id, jobID, want, nil); err != nil {
				t.Fatalf("round %d: redelivery of an accepted report: %v", i, err)
			}
		case errors.Is(err, ErrLeaseGone):
			if r.handled {
				t.Fatalf("round %d: report refused, but Dispatch handled it (err=%v cycles=%d)", i, r.err, r.st.Cycles)
			}
		default:
			t.Fatalf("round %d: Resolve = %v", i, err)
		}
	}
	t.Logf("%d of %d reports aimed at the deadline accepted", accepted, rounds)
}
