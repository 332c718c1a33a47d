package fault_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"banshee/internal/errs"
	"banshee/internal/fault"
	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/sim"
)

// chaosMatrix is the 16-job sweep the chaos tests run: small enough
// for -race, wide enough that 5% fault rates deterministically select
// victims (plan seed 29 draws one panic, one error, and one stall
// victim — see TestChaosSweepConvergesToGolden's accounting).
func chaosMatrix(name string) runner.Matrix {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore = 60_000
	base.Seed = 11
	return runner.Matrix{
		Name:      name,
		Base:      base,
		Workloads: []string{"pagerank", "lbm"},
		Schemes:   []string{"NoCache", "Banshee"},
		Points: []runner.Point{
			{Label: "p0"},
			{Label: "p1", Set: json.RawMessage(`{"InPkgLatScale":0.9}`)},
			{Label: "p2", Set: json.RawMessage(`{"InPkgLatScale":0.8}`)},
			{Label: "p3", Set: json.RawMessage(`{"InPkgLatScale":0.7}`)},
		},
	}
}

// chaosPlan injects panics, errors, and stalls at a 5% rate each, the
// acceptance scenario: seed 29 victimizes exactly one job per mode in
// chaosMatrix's 16.
var chaosPlan = fault.Plan{Seed: 29, PanicRate: 0.05, ErrRate: 0.05, StallRate: 0.05, Stall: time.Millisecond}

// TestChaosSweepConvergesToGolden is the end-to-end chaos contract (CI
// runs it under -race): a sweep with injected panics and errors at 5%
// completes every healthy job, ledgers the victims, keeps the success
// stream byte-identical to the golden file minus the victims' lines,
// and a fault-free resume converges the file to the golden bytes.
func TestChaosSweepConvergesToGolden(t *testing.T) {
	chaosConverges(t, "chaos", 0)
}

// TestChaosGangSweepLedgersVictims: the same contract with ganging on.
// The injector wraps the engine's one group seam, so the NoCache
// points still run as gang lanes; a gang holding a victim faults as a
// whole and falls back to singles, which meet their own draws.
func TestChaosGangSweepLedgersVictims(t *testing.T) {
	snap := chaosConverges(t, "chaosgang", 4)
	if snap["banshee_gang_lanes_total"] == 0 || snap["banshee_gang_fallbacks_total"] == 0 {
		t.Fatalf("chaos sweep at GangWidth 4 ran %v gang lanes and %v fallbacks, want both > 0",
			snap["banshee_gang_lanes_total"], snap["banshee_gang_fallbacks_total"])
	}
}

// chaosConverges runs chaosMatrix under chaosPlan at the given gang
// width, checks the chaos contract, and returns the chaos run's
// metrics.
func chaosConverges(t *testing.T, name string, gangWidth int) map[string]float64 {
	t.Helper()
	m := chaosMatrix(name)
	dir := t.TempDir()
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}

	// The injector itself tells us who must fail — fault decisions are
	// keyed by content ID, so this accounting is exact, not statistical.
	in := fault.New(chaosPlan)
	victims := map[string]fault.Mode{}
	for _, j := range jobs {
		switch mode := in.ModeFor(j.ID); mode {
		case fault.Panic, fault.Err:
			victims[j.ID] = mode
		}
	}
	if len(victims) < 2 {
		t.Fatalf("plan draws %d panic/err victims, want >= 2 (wrong seed?)", len(victims))
	}

	// Golden: the fault-free run.
	goldenPath := filepath.Join(dir, "golden.jsonl")
	gsink, err := runner.OpenSink(goldenPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: gsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	gsink.Close()
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: injected faults, supervision on, keep going.
	chaosPath := filepath.Join(dir, "chaos.jsonl")
	csink, err := runner.OpenSink(chaosPath, false)
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "chaos.failed.jsonl")
	reg := obs.NewRegistry()
	rs, err := (runner.Engine{
		Parallelism: 4,
		Sink:        csink,
		FailedOut:   ledger,
		KeepGoing:   true,
		GangWidth:   gangWidth,
		Metrics:     reg,
		JobRunner:   fault.New(chaosPlan).Runner(nil),
		Retry:       runner.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Millisecond},
	}).Run(context.Background(), m)
	if err != nil {
		t.Fatalf("chaos sweep aborted instead of degrading: %v", err)
	}
	csink.Close()

	// Exactly the predicted victims failed; everyone else completed.
	failed := rs.Failed()
	failedIDs := map[string]bool{}
	for _, f := range failed {
		if _, expected := victims[f.ID]; !expected {
			t.Fatalf("job %s (%s/%s) failed outside the injection plan: %s", f.ID, f.Workload, f.Scheme, f.Error)
		}
		failedIDs[f.ID] = true
		if victims[f.ID] == fault.Panic && !f.Panicked {
			t.Fatalf("panic victim %s not marked panicked", f.ID)
		}
		if f.Attempts != 2 {
			t.Fatalf("victim %s retried %d times, want the policy's 2 attempts", f.ID, f.Attempts)
		}
	}
	for id := range victims {
		if !failedIDs[id] {
			t.Fatalf("planned victim %s did not fail", id)
		}
	}
	lb, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := runner.ParseRecords(lb); err != nil || len(recs) != len(failed) {
		t.Fatalf("ledger holds %d failures (err %v), Failed() reports %d", len(recs), err, len(failed))
	}

	// Success stream: golden minus the victims' lines, byte-for-byte —
	// survivors are bit-identical to a fault-free run (stall victims
	// included: latency faults must not perturb results).
	var want []byte
	for _, line := range bytes.SplitAfter(golden, []byte{'\n'}) {
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
		t.Fatal("chaos run's success stream is not golden-minus-victims")
	}

	// Resume without faults: only the victims re-simulate and the file
	// converges to the golden bytes.
	rsink, err := runner.OpenSink(chaosPath, true)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := (runner.Engine{Parallelism: 4, Sink: rsink, FailedOut: ledger, KeepGoing: true}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	rsink.Close()
	if len(rs2.Failed()) != 0 {
		t.Fatalf("fault-free resume still failed %d jobs", len(rs2.Failed()))
	}
	resumed, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resume after chaos did not converge to the golden file")
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Fatal("converged resume left a stale failure ledger")
	}
	return reg.Snapshot()
}

// TestChaosTransientRetryConvergence: when every fault is transient
// (one bad attempt per job), retry alone absorbs 100% error injection
// — the sweep succeeds with output byte-identical to a fault-free run.
func TestChaosTransientRetryConvergence(t *testing.T) {
	m := chaosMatrix("transient")
	dir := t.TempDir()

	goldenPath := filepath.Join(dir, "golden.jsonl")
	gsink, err := runner.OpenSink(goldenPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: gsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	gsink.Close()

	retryPath := filepath.Join(dir, "retry.jsonl")
	rsink, err := runner.OpenSink(retryPath, false)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(fault.Plan{Seed: 1, ErrRate: 1, FailAttempts: 1})
	rs, err := (runner.Engine{
		Parallelism: 4,
		Sink:        rsink,
		JobRunner:   in.Runner(nil),
		Retry:       runner.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond},
	}).Run(context.Background(), m)
	if err != nil {
		t.Fatalf("transient chaos not absorbed by retry: %v", err)
	}
	rsink.Close()
	if jobs, _ := m.Jobs(); rs.Executed != len(jobs) {
		t.Fatalf("executed %d jobs, want all %d", rs.Executed, len(jobs))
	}
	golden, _ := os.ReadFile(goldenPath)
	retried, _ := os.ReadFile(retryPath)
	if !bytes.Equal(golden, retried) {
		t.Fatal("retried-through-faults output differs from fault-free run")
	}
}

// TestChaosSinkTornWrite: a short write injected into the checkpoint
// stream aborts the sweep with the injected error, leaves a torn tail,
// and a resume repairs it — completing the file byte-identically.
func TestChaosSinkTornWrite(t *testing.T) {
	m := chaosMatrix("torn")
	dir := t.TempDir()

	goldenPath := filepath.Join(dir, "golden.jsonl")
	gsink, err := runner.OpenSink(goldenPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: gsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	gsink.Close()
	golden, _ := os.ReadFile(goldenPath)

	// Tear the write that crosses byte 600 — mid-line, a record or two
	// into the file.
	tornPath := filepath.Join(dir, "torn.jsonl")
	sink, err := runner.OpenSink(tornPath, false)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(fault.Plan{ShortRate: 1, FaultAfter: 600})
	sink.WrapWriter(func(w io.Writer) io.Writer { return in.Writer(w, "sink") })
	_, err = (runner.Engine{Parallelism: 1, Sink: sink}).Run(context.Background(), m)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn sweep error = %v, want ErrInjected", err)
	}
	sink.Close()
	torn, _ := os.ReadFile(tornPath)
	if len(torn) == 0 || bytes.HasPrefix(golden, torn) && torn[len(torn)-1] == '\n' {
		t.Fatalf("expected a torn (mid-line) tail, got %d clean bytes", len(torn))
	}

	// Resume repairs the tear and completes the file.
	rsink, err := runner.OpenSink(tornPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: rsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	rsink.Close()
	resumed, _ := os.ReadFile(tornPath)
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resume over torn checkpoint did not converge to golden")
	}
}

// enospcWriter emulates a filling disk: after budget bytes it answers
// every write with ENOSPC (the last write lands short, like a real
// device running out mid-line).
type enospcWriter struct {
	w      io.Writer
	budget int
}

func (e *enospcWriter) Write(p []byte) (int, error) {
	if e.budget <= 0 {
		return 0, syscall.ENOSPC
	}
	if len(p) > e.budget {
		n, _ := e.w.Write(p[:e.budget])
		e.budget = 0
		return n, syscall.ENOSPC
	}
	e.budget -= len(p)
	return e.w.Write(p)
}

// TestChaosSinkDiskFullPausesCleanly: a checkpoint stream hitting
// ENOSPC aborts the sweep with a typed errs.ErrDiskFull — pause, not
// corruption — and once "space is freed" a resume repairs the torn
// tail and converges the file byte-identically to the golden run.
func TestChaosSinkDiskFullPausesCleanly(t *testing.T) {
	m := chaosMatrix("enospc")
	dir := t.TempDir()

	goldenPath := filepath.Join(dir, "golden.jsonl")
	gsink, err := runner.OpenSink(goldenPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: gsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	gsink.Close()
	golden, _ := os.ReadFile(goldenPath)

	fullPath := filepath.Join(dir, "full.jsonl")
	sink, err := runner.OpenSink(fullPath, false)
	if err != nil {
		t.Fatal(err)
	}
	sink.WrapWriter(func(w io.Writer) io.Writer { return &enospcWriter{w: w, budget: 600} })
	_, err = (runner.Engine{Parallelism: 1, Sink: sink}).Run(context.Background(), m)
	if !errors.Is(err, errs.ErrDiskFull) {
		t.Fatalf("disk-full sweep error = %v, want errs.ErrDiskFull", err)
	}
	var dfe *errs.DiskFullError
	if !errors.As(err, &dfe) || !errors.Is(dfe.Err, syscall.ENOSPC) {
		t.Fatalf("disk-full error lost its cause: %v", err)
	}
	sink.Close() // flush will fail again; the file is what matters

	// The disk "has space again": resume repairs the torn tail and
	// completes the checkpoint to the golden bytes.
	rsink, err := runner.OpenSink(fullPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (runner.Engine{Parallelism: 4, Sink: rsink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	rsink.Close()
	resumed, _ := os.ReadFile(fullPath)
	if !bytes.Equal(resumed, golden) {
		t.Fatal("resume after disk-full did not converge to golden")
	}
}
