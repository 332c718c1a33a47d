package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"banshee/internal/errs"
	"banshee/internal/stats"
)

// flakyRunner fails the first failN attempts of every job whose ID is
// in victims (all jobs when victims is nil), then delegates to the
// real simulation — a deterministic transient fault. A group fails if
// any member does.
type flakyRunner struct {
	mu       sync.Mutex
	attempts map[string]int
	failN    int
	victims  map[string]bool
	panics   bool
}

func (f *flakyRunner) run(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
	for _, job := range jobs {
		f.mu.Lock()
		if f.attempts == nil {
			f.attempts = map[string]int{}
		}
		f.attempts[job.ID]++
		n := f.attempts[job.ID]
		victim := f.victims == nil || f.victims[job.ID]
		f.mu.Unlock()
		if victim && n <= f.failN {
			if f.panics {
				panic(fmt.Sprintf("flaky: attempt %d of job %s", n, job.ID))
			}
			return nil, fmt.Errorf("flaky: attempt %d of job %s", n, job.ID)
		}
	}
	return Simulate(ctx, jobs)
}

// runToFile executes m with the engine into path and returns the
// file's bytes.
func runToFile(t *testing.T, e Engine, m Matrix, path string) []byte {
	t.Helper()
	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	e.Sink = sink
	if _, err := e.Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRetryDeterminism is the retry contract: a job that fails N-1
// times and then succeeds must produce a record byte-identical to a
// never-failing run's — retries may not perturb the simulation's RNG
// streams or statistics.
func TestRetryDeterminism(t *testing.T) {
	m := testMatrix("retrydet")
	dir := t.TempDir()

	clean := runToFile(t, Engine{Parallelism: 2}, m, filepath.Join(dir, "clean.jsonl"))

	flaky := &flakyRunner{failN: 2}
	retried := runToFile(t, Engine{
		Parallelism: 2,
		JobRunner:   flaky.run,
		Retry:       RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond},
	}, m, filepath.Join(dir, "retried.jsonl"))

	if !bytes.Equal(clean, retried) {
		t.Fatal("retried run's JSONL differs from never-failing run's")
	}
	// Panicking attempts must be just as invisible.
	flaky2 := &flakyRunner{failN: 2, panics: true}
	panicked := runToFile(t, Engine{
		Parallelism: 2,
		JobRunner:   flaky2.run,
		Retry:       RetryPolicy{MaxAttempts: 3},
	}, m, filepath.Join(dir, "panicked.jsonl"))
	if !bytes.Equal(clean, panicked) {
		t.Fatal("panic-retried run's JSONL differs from never-failing run's")
	}
}

// TestPanicIsolationFailFast: a panicking job fails the sweep with a
// typed *errs.JobError carrying the job context — the process (and the
// worker pool) survives the panic.
func TestPanicIsolationFailFast(t *testing.T) {
	m := testMatrix("panicisol")
	boom := func(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		panic("scheme exploded")
	}
	_, err := (Engine{Parallelism: 2, JobRunner: boom}).Run(context.Background(), m)
	if err == nil {
		t.Fatal("panicking sweep returned nil error")
	}
	var jerr *errs.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("want *errs.JobError, got %T: %v", err, err)
	}
	if !jerr.Panicked || jerr.Attempts != 1 || jerr.Coord == "" || jerr.ID == "" {
		t.Fatalf("incomplete job error context: %+v", jerr)
	}
	if !strings.Contains(err.Error(), "scheme exploded") {
		t.Fatalf("panic cause lost: %v", err)
	}
}

// TestJobTimeout: a per-job deadline converts a hung job into a
// retryable failure wrapping context.DeadlineExceeded, while the
// parent context stays live.
func TestJobTimeout(t *testing.T) {
	m := testMatrix("timeout")
	m.Workloads, m.Schemes, m.Points = m.Workloads[:1], m.Schemes[:1], m.Points[:1]
	hang := func(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, err := (Engine{JobRunner: hang, JobTimeout: 5 * time.Millisecond,
		Retry: RetryPolicy{MaxAttempts: 2}}).Run(context.Background(), m)
	var jerr *errs.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("want *errs.JobError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline cause not preserved: %v", err)
	}
	if jerr.Attempts != 2 {
		t.Fatalf("blown deadline retried %d times, want 2 attempts", jerr.Attempts)
	}
}

// TestKeepGoingLedgerAndResume is the graceful-degradation contract:
// a sweep with permanently failing jobs completes every other job,
// streams the failures to the ledger, leaves them out of the success
// stream, and a resume without faults retries exactly the failed jobs
// — converging to a file byte-identical to a never-failing run's.
func TestKeepGoingLedgerAndResume(t *testing.T) {
	m := testMatrix("ledger")
	dir := t.TempDir()
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Fail two specific jobs permanently (one of them mid-enumeration,
	// so the success stream has an interior gap).
	victims := map[string]bool{jobs[1].ID: true, jobs[5].ID: true}
	clean := runToFile(t, Engine{Parallelism: 2}, m, filepath.Join(dir, "clean.jsonl"))

	chaosPath := filepath.Join(dir, "chaos.jsonl")
	ledger := filepath.Join(dir, "chaos.failed.jsonl")
	flaky := &flakyRunner{failN: 1 << 30, victims: victims}
	sink, err := OpenSink(chaosPath, false)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	rs, err := (Engine{Parallelism: 2, Sink: sink, FailedOut: ledger, KeepGoing: true,
		JobRunner: flaky.run, Retry: RetryPolicy{MaxAttempts: 2}, Progress: &progress}).Run(context.Background(), m)
	if err != nil {
		t.Fatalf("keep-going sweep aborted: %v", err)
	}
	sink.Close()

	failed := rs.Failed()
	if len(failed) != 2 {
		t.Fatalf("Failed() reports %d jobs, want 2", len(failed))
	}
	for _, f := range failed {
		if !victims[f.ID] || f.Attempts != 2 || f.Error == "" {
			t.Fatalf("bad failure record: %+v", f)
		}
	}
	// Ledger file holds both failures with context.
	lb, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ParseRecords(lb); err != nil || len(recs) != 2 {
		t.Fatalf("ledger recorded %d failures (err %v), want 2", len(recs), err)
	}
	if got := bytes.Count(lb, []byte{'\n'}); got != 2 {
		t.Fatalf("ledger holds %d lines, want 2", got)
	}
	if !bytes.Contains(lb, []byte(`"error":"flaky`)) {
		t.Fatalf("ledger lines lack error context: %s", lb)
	}
	// Failed coordinates aggregate as explicit zero-valued holes.
	for _, f := range failed {
		if st := rs.Get(f.Label, f.Workload, f.Scheme); st.Cycles != 0 {
			t.Fatal("failed coordinate returned a non-zero result")
		}
	}
	if !strings.Contains(progress.String(), "FAIL") {
		t.Fatal("progress output lacks FAIL lines")
	}

	// The success stream is the clean run's file minus the failed
	// jobs' lines, in order.
	var want []byte
	for _, line := range bytes.SplitAfter(clean, []byte{'\n'}) {
		keep := true
		for id := range victims {
			if bytes.Contains(line, []byte(`"id":"`+id+`"`)) {
				keep = false
			}
		}
		if keep {
			want = append(want, line...)
		}
	}
	chaos, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaos, want) {
		t.Fatalf("success stream not clean-minus-failed:\n--- got ---\n%s--- want ---\n%s", chaos, want)
	}

	// Resume without faults: exactly the failed jobs re-simulate, the
	// file converges to the never-failing run's bytes, and the ledger
	// is reset away.
	sink2, err := OpenSink(chaosPath, true)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := (Engine{Parallelism: 2, Sink: sink2, FailedOut: ledger, KeepGoing: true}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	if len(rs2.Failed()) != 0 {
		t.Fatalf("fault-free resume still failed %d jobs", len(rs2.Failed()))
	}
	if rs2.Executed == 0 || rs2.Executed > len(victims) {
		t.Fatalf("resume executed %d jobs, want 1..%d (failed jobs only)", rs2.Executed, len(victims))
	}
	resumed, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, clean) {
		t.Fatal("resume after failures did not converge to the never-failing run's bytes")
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Fatal("clean resume left a stale ledger file behind")
	}
}

// TestKeepGoingSharesFailureAcrossIdenticalConfigs: two coordinates
// resolving to one content key share the failure, not just the result.
func TestKeepGoingSharesFailureAcrossIdenticalConfigs(t *testing.T) {
	m := testMatrix("sharefail")
	m.Workloads = m.Workloads[:1]
	m.Schemes = m.Schemes[:1]
	m.Points = []Point{{Label: "a"}, {Label: "b"}} // identical configs
	jobs, _ := m.Jobs()
	if jobs[0].ID != jobs[1].ID {
		t.Fatal("test premise broken: points should share a content key")
	}
	flaky := &flakyRunner{failN: 1 << 30}
	rs, err := (Engine{Parallelism: 2, KeepGoing: true, JobRunner: flaky.run}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Failed()) != 2 {
		t.Fatalf("want both coordinates failed, got %d", len(rs.Failed()))
	}
	if flaky.attempts[jobs[0].ID] != 1 {
		t.Fatalf("identical failing config attempted %d times, want 1", flaky.attempts[jobs[0].ID])
	}
	if rs.Failed()[0].Label == rs.Failed()[1].Label {
		t.Fatal("failure records did not keep distinct coordinates")
	}
}

// TestRetryBackoffDeterministicJitter: the backoff schedule is a pure
// function of (policy, job ID, attempt).
func TestRetryBackoffDeterministicJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for attempt := 1; attempt <= 4; attempt++ {
		a := p.Delay("job-a", attempt)
		if b := p.Delay("job-a", attempt); a != b {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", attempt, a, b)
		}
		lo := p.BaseDelay << (attempt - 1) / 2
		hi := p.BaseDelay << (attempt - 1)
		if hi > p.MaxDelay {
			lo, hi = p.MaxDelay/2, p.MaxDelay
		}
		if a < lo || a > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	if p.Delay("job-a", 2) == p.Delay("job-b", 2) {
		t.Fatal("different jobs drew identical jitter (suspicious hash)")
	}
	if (RetryPolicy{}).Delay("x", 1) != 0 {
		t.Fatal("zero policy should not delay")
	}
}

// TestRetryJitterVariesAcrossAttempts: the jitter is per attempt, not
// per job. With the exponential delay capped flat, only the jitter
// fraction varies, and one job's attempts must draw it spread across
// [0,1). FNV-64a alone barely moves the top bits for a trailing
// attempt digit, so an unmixed hash draws nearly one value per job.
func TestRetryJitterVariesAcrossAttempts(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 7, BaseDelay: time.Second, MaxDelay: time.Second}
	seen := map[time.Duration]bool{}
	lo, hi := 1.0, 0.0
	for attempt := 1; attempt <= 6; attempt++ {
		d := p.Delay("abc123", attempt)
		if seen[d] {
			t.Fatalf("attempt %d repeated an earlier delay %v", attempt, d)
		}
		seen[d] = true
		frac := float64(d-p.MaxDelay/2) / float64(p.MaxDelay/2)
		lo, hi = min(lo, frac), max(hi, frac)
	}
	if hi-lo < 0.25 {
		t.Fatalf("jitter fractions of one job's attempts span only [%.5f, %.5f]", lo, hi)
	}
}

// TestSinkCRCTruncatesAtBadRecord: per-record checksums turn interior
// corruption — not just a torn tail — into a clean truncate-and-retry
// on resume, with the drop count reported.
func TestSinkCRCTruncatesAtBadRecord(t *testing.T) {
	m := testMatrix("crc")
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	full := runToFile(t, Engine{Parallelism: 2}, m, path)
	lines := bytes.SplitAfter(full, []byte{'\n'})
	if len(lines) < 9 { // 8 records + empty tail
		t.Fatalf("want 8 lines, got %d", len(lines)-1)
	}

	// Flip one digit inside the second record's JSON body.
	corrupt := bytes.Join(lines, nil)
	off := len(lines[0]) + len(lines[1])/2
	if corrupt[off] == '\n' || corrupt[off] == '"' {
		off++
	}
	corrupt[off] ^= 1
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	sink, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Loaded()); got != 1 {
		t.Fatalf("loaded %d records past corruption, want 1", got)
	}
	if got := sink.Dropped(); got != 7 {
		t.Fatalf("Dropped() = %d, want 7", got)
	}
	// The engine resumes over the repaired file to a byte-identical
	// final state (dropped-but-valid results re-simulate).
	rs, err := (Engine{Parallelism: 2, Sink: sink}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	if rs.Cached < 1 {
		t.Fatalf("intact prefix not reused: cached %d", rs.Cached)
	}
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full) {
		t.Fatal("resume over repaired file diverged from uninterrupted run")
	}

	// A value-level flip that keeps the JSON parseable must still be
	// caught: the CRC covers raw bytes, not structure.
	digitFlip := bytes.Join(lines, nil)
	di := bytes.Index(digitFlip, []byte(`"cycles":`))
	if di < 0 {
		di = bytes.IndexAny(digitFlip, "0123456789")
	}
	for ; di < len(digitFlip); di++ {
		if digitFlip[di] >= '1' && digitFlip[di] <= '8' {
			digitFlip[di]++
			break
		}
	}
	if err := os.WriteFile(path, digitFlip, 0o644); err != nil {
		t.Fatal(err)
	}
	sink2, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	if got := len(sink2.Loaded()); got != 0 {
		t.Fatalf("value-corrupted first record still loaded (%d records)", got)
	}
}

// TestLedgerLifecycle: the engine owns the FailedOut file. A run
// removes the previous run's ledger at start, creates no file before
// its first failure, and writes each failure as a checksummed record.
func TestLedgerLifecycle(t *testing.T) {
	jobs, err := testMatrix("lifecycle").Jobs()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.failed.jsonl")
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	victim := jobs[len(jobs)-1].ID
	failing := true
	run := func(ctx context.Context, group []Job) ([]stats.Sim, error) {
		for _, j := range group {
			if failing && j.ID == victim {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Error("ledger file exists before the first failure")
				}
				return nil, fmt.Errorf("boom")
			}
		}
		return make([]stats.Sim, len(group)), nil
	}
	eng := Engine{Parallelism: 1, FailedOut: path, KeepGoing: true, JobRunner: run}
	if _, err := eng.RunJobs(context.Background(), "lifecycle", 0, jobs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ParseRecords(b)
	if err != nil || len(recs) != 1 || recs[0].ID != victim || recs[0].Error != "boom" {
		t.Fatalf("ledger = %+v (err %v), want one %s failure", recs, err, victim)
	}
	failing = false
	if _, err := eng.RunJobs(context.Background(), "lifecycle", 0, jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a clean run left the previous run's ledger file")
	}
}
