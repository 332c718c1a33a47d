package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

// scriptedDispatcher runs a caller-supplied function per Dispatch call,
// numbering calls so tests can script per-attempt outcomes.
type scriptedDispatcher struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, job Job) (stats.Sim, bool, error)
}

func (d *scriptedDispatcher) Dispatch(ctx context.Context, job Job) (stats.Sim, bool, error) {
	d.mu.Lock()
	d.calls++
	n := d.calls
	d.mu.Unlock()
	return d.fn(n, job)
}

func (d *scriptedDispatcher) callCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

// sinkBytes runs the engine over the matrix with a fresh sink and
// returns the checkpoint file's bytes.
func sinkBytes(t *testing.T, eng Engine, m Matrix) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng.Sink = sink
	if _, err := eng.Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDispatcherDeclineRunsLocally: a dispatcher that declines every
// offer (no worker attached) must leave the run indistinguishable from
// one with no dispatcher at all — same bytes, every job offered once.
func TestDispatcherDeclineRunsLocally(t *testing.T) {
	m := testMatrix("disp-decline")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	d := &scriptedDispatcher{fn: func(int, Job) (stats.Sim, bool, error) {
		return stats.Sim{}, false, nil
	}}
	got := sinkBytes(t, Engine{Parallelism: 2, Dispatch: d}, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("declined-dispatch run diverged from plain run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	if d.callCount() != 8 {
		t.Fatalf("dispatcher saw %d offers, want 8 (one per job)", d.callCount())
	}
}

// TestDispatcherRemoteByteIdentical: a dispatcher that executes every
// attempt itself (a stand-in for an attached worker) produces a sink
// byte-identical to local execution, and the remote-attempt counters
// account for every job.
func TestDispatcherRemoteByteIdentical(t *testing.T) {
	m := testMatrix("disp-remote")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	d := &scriptedDispatcher{fn: func(_ int, job Job) (stats.Sim, bool, error) {
		sts, err := Simulate(context.Background(), []Job{job})
		if err != nil {
			return stats.Sim{}, true, err
		}
		return sts[0], true, nil
	}}
	reg := obs.NewRegistry()
	got := sinkBytes(t, Engine{Parallelism: 2, Dispatch: d, Metrics: reg}, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("remote run diverged from local run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	snap := reg.Snapshot()
	if snap["banshee_remote_attempts_total"] != 8 {
		t.Fatalf("remote attempts = %v, want 8", snap["banshee_remote_attempts_total"])
	}
	if snap["banshee_remote_attempt_failures_total"] != 0 {
		t.Fatalf("remote failures = %v, want 0", snap["banshee_remote_attempt_failures_total"])
	}
}

// TestDispatcherRemoteFailureRetries: a failed remote attempt is a
// failed attempt like any local one — retried under the RetryPolicy —
// and a dispatcher that then declines hands the retry to local
// execution, converging to the same bytes.
func TestDispatcherRemoteFailureRetries(t *testing.T) {
	m := testMatrix("disp-retry")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	d := &scriptedDispatcher{fn: func(call int, job Job) (stats.Sim, bool, error) {
		if call == 1 {
			return stats.Sim{}, true, fmt.Errorf("synthetic remote failure")
		}
		return stats.Sim{}, false, nil
	}}
	reg := obs.NewRegistry()
	got := sinkBytes(t, Engine{Parallelism: 2, Dispatch: d, Metrics: reg,
		Retry: RetryPolicy{MaxAttempts: 2}}, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("retried run diverged from plain run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	snap := reg.Snapshot()
	if snap["banshee_remote_attempt_failures_total"] != 1 {
		t.Fatalf("remote failures = %v, want 1", snap["banshee_remote_attempt_failures_total"])
	}
	if snap["banshee_job_retries_total"] != 1 {
		t.Fatalf("retries = %v, want 1", snap["banshee_job_retries_total"])
	}
}

// TestRunJobsMatchesRun: executing a pre-enumerated job list (the wire
// path a sweep service uses) is byte-identical to running the matrix
// it was enumerated from.
func TestRunJobsMatchesRun(t *testing.T) {
	m := testMatrix("runjobs")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Parallelism: 2, Sink: sink}
	rs, err := eng.RunJobs(context.Background(), m.Name, m.Base.Seed, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("RunJobs diverged from Run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	if rs.Executed != len(jobs) {
		t.Fatalf("executed %d jobs, want %d", rs.Executed, len(jobs))
	}
}
