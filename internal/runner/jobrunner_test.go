package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"banshee/internal/obs"
	"banshee/internal/stats"
)

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

// countingRunner wraps a JobRunner, numbering its calls so tests can
// script per-attempt outcomes and count what the engine handed it.
type countingRunner struct {
	mu    sync.Mutex
	calls int
	jobs  int
	fn    func(call int, ctx context.Context, jobs []Job) ([]stats.Sim, error)
}

func (r *countingRunner) run(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
	r.mu.Lock()
	r.calls++
	r.jobs += len(jobs)
	n := r.calls
	r.mu.Unlock()
	return r.fn(n, ctx, jobs)
}

// TestJobRunnerOutOfProcessByteIdentical: a JobRunner that executes
// each job elsewhere — here, from the job's JSON wire form, as a sweep
// service's attached worker does — produces a sink byte-identical to
// local execution, and every job passes through it.
func TestJobRunnerOutOfProcessByteIdentical(t *testing.T) {
	m := testMatrix("jr-remote")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	r := &countingRunner{fn: func(_ int, ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		var wire []Job
		b, err := json.Marshal(jobs)
		if err == nil {
			err = json.Unmarshal(b, &wire)
		}
		if err != nil {
			return nil, err
		}
		for _, j := range wire {
			if got := JobKey(j.Config); got != j.ID {
				return nil, fmt.Errorf("job %s config hashes to %s after the round trip", j.ID, got)
			}
		}
		return Simulate(ctx, wire)
	}}
	got := sinkBytes(t, Engine{Parallelism: 2, JobRunner: r.run, Metrics: obs.NewRegistry()}, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("out-of-process run diverged from local run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	if r.jobs != 8 {
		t.Fatalf("runner saw %d jobs, want 8", r.jobs)
	}
}

// TestJobRunnerFailedAttemptRetries: a JobRunner's failed attempt is
// retried under the RetryPolicy like any other failure, and the retry
// converges to the same bytes.
func TestJobRunnerFailedAttemptRetries(t *testing.T) {
	m := testMatrix("jr-retry")
	golden := sinkBytes(t, Engine{Parallelism: 2}, m)

	r := &countingRunner{fn: func(call int, ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		if call == 1 {
			return nil, fmt.Errorf("synthetic attempt failure")
		}
		return Simulate(ctx, jobs)
	}}
	reg := obs.NewRegistry()
	got := sinkBytes(t, Engine{Parallelism: 2, JobRunner: r.run, Metrics: reg,
		Retry: RetryPolicy{MaxAttempts: 2}}, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("retried run diverged from plain run:\n got %d bytes\nwant %d bytes", len(got), len(golden))
	}
	if r.calls != 9 {
		t.Fatalf("runner called %d times, want 9 (8 jobs + 1 retry)", r.calls)
	}
	if snap := reg.Snapshot(); snap["banshee_job_retries_total"] != 1 {
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
