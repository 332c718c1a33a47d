// Service contract tests: a sweep submitted to the daemon must
// converge to results byte-identical to a local engine run of the same
// spec, through every disruption the service is built to absorb —
// concurrent streamers, client cancellation, worker lease expiry, and
// multi-client sharing.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/sim"
	"banshee/internal/stats"
)

// testBase is a config small enough that a whole matrix runs in tens
// of milliseconds.
func testBase() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 1
	cfg.InstrPerCore = 20_000
	cfg.Seed = 7
	return cfg
}

func testSpec(name string) Spec {
	return Spec{Matrix: runner.Matrix{
		Name:      name,
		Base:      testBase(),
		Workloads: []string{"mcf", "lbm"},
		Schemes:   []string{"NoCache", "Alloy 1"},
		Seeds:     []uint64{7, 8},
	}}
}

// localBytes runs the spec through a local engine into a sink file and
// returns the file's bytes — the golden the service must converge to.
func localBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "local.jsonl")
	sink, err := runner.OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.Engine{Parallelism: 2, Sink: sink}
	if _, err := eng.RunJobs(context.Background(), spec.Name, spec.BaseSeed(), jobs); err != nil {
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

func newDaemon(t *testing.T, dir string) *Daemon {
	t.Helper()
	d, err := New(Options{StateDir: dir, Parallelism: 2, MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func dialTest(t *testing.T, d *Daemon) (*Client, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

// TestSubmitConvergesToLocalBytes is the core acceptance contract:
// submitting a spec over HTTP yields a results stream byte-identical
// to a local engine run of the same spec.
func TestSubmitConvergesToLocalBytes(t *testing.T) {
	spec := testSpec("svc-converge")
	want := localBytes(t, spec)

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != SweepID(mustJobs(t, spec)) {
		t.Fatalf("submit returned sweep %s", st.ID)
	}
	var got bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("streamed bytes differ from local run:\n got %d bytes\nwant %d bytes", got.Len(), len(want))
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	// Resubmit of a done sweep is idempotent: same ID, done, no re-run.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.State != StateDone {
		t.Fatalf("resubmit = %+v", again)
	}
}

// TestSweepsFinishedCountedBeforeDone runs sweeps one after another:
// as soon as Wait reports a sweep done, sweepd_sweeps_finished_total
// must already count it.
func TestSweepsFinishedCountedBeforeDone(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()
	for i := uint64(0); i < 4; i++ {
		spec := testSpec(fmt.Sprintf("svc-count-%d", i))
		spec.Workloads, spec.Schemes, spec.Seeds = []string{"mcf"}, []string{"NoCache"}, []uint64{i}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.Wait(ctx, st.ID, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateDone {
			t.Fatalf("sweep %d ended %s (%s)", i, final.State, final.Error)
		}
		if got := d.sweepsFinished.Value(); got < i+1 {
			t.Fatalf("after %d sweeps done, sweepd_sweeps_finished_total = %d", i+1, got)
		}
	}
}

func mustJobs(t *testing.T, spec Spec) (string, []runner.Job) {
	t.Helper()
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec.Name, jobs
}

// TestConcurrentStreamersIdenticalBytes: two clients streaming the
// same live sweep get identical byte sequences.
func TestConcurrentStreamersIdenticalBytes(t *testing.T) {
	spec := testSpec("svc-streamers")
	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var bufs [2]bytes.Buffer
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.StreamResults(ctx, st.ID, 0, &bufs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("streamer %d: %v", i, err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("streamers disagree: %d vs %d bytes", bufs[0].Len(), bufs[1].Len())
	}
	if bufs[0].Len() == 0 {
		t.Fatal("streams empty")
	}
	if _, err := runner.ParseRecords(bufs[0].Bytes()); err != nil {
		t.Fatal(err)
	}
}

// TestStreamResumeFromOffset: a stream broken at an arbitrary byte
// offset resumes there and completes to the same total bytes.
func TestStreamResumeFromOffset(t *testing.T) {
	spec := testSpec("svc-offset")
	want := localBytes(t, spec)
	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cut := int64(len(want) / 3)
	var head, tail bytes.Buffer
	head.Write(want[:cut]) // pretend the first stream died after cut bytes
	if _, err := c.StreamResults(ctx, st.ID, cut, &tail); err != nil {
		t.Fatal(err)
	}
	got := append(head.Bytes(), tail.Bytes()...)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs: %d vs %d bytes", len(got), len(want))
	}
}

// TestCancelIsolation: cancelling a sweep from one client leaves a
// concurrent streamer with an intact (CRC-clean, prefix-consistent)
// stream, and a resubmit converges to the full local bytes.
func TestCancelIsolation(t *testing.T) {
	spec := testSpec("svc-cancel")
	spec.Base.InstrPerCore = 200_000 // long enough to cancel mid-flight
	want := localBytes(t, spec)

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	streamDone := make(chan error, 1)
	go func() {
		_, err := c.StreamResults(ctx, st.ID, 0, &streamed)
		streamDone <- err
	}()
	// Let some work land, then cancel from a second client.
	time.Sleep(100 * time.Millisecond)
	c2, _ := dialTest(t, d)
	cst, err := c2.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cst.State != StateCancelled && cst.State != StateDone {
		t.Fatalf("cancel state = %s", cst.State)
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("streamer broken by cancel: %v", err)
	}
	// The surviving stream is a clean CRC-checked prefix of the local
	// golden bytes.
	if !bytes.HasPrefix(want, streamed.Bytes()) {
		t.Fatalf("cancelled stream is not a prefix of the golden bytes (%d bytes)", streamed.Len())
	}
	if _, err := runner.ParseRecords(streamed.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Resubmit resumes from the checkpoint and converges byte-identically.
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit produced different sweep %s != %s", st2.ID, st.ID)
	}
	var full bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), want) {
		t.Fatalf("post-cancel resubmit diverged: %d vs %d bytes", full.Len(), len(want))
	}
}

// TestDaemonRestartResumes: SIGKILL-equivalent in-process — drop the
// daemon mid-sweep without marking anything, then construct a new
// daemon over the same state dir and verify it resumes the sweep to
// byte-identical completion.
func TestDaemonRestartResumes(t *testing.T) {
	spec := testSpec("svc-restart")
	spec.Base.InstrPerCore = 200_000
	want := localBytes(t, spec)
	dir := t.TempDir()

	d1 := newDaemon(t, dir)
	if _, err := d1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Wait for at least one record to hit the checkpoint, then "crash":
	// Close interrupts the engine and — critically — writes no done
	// marker.
	id := SweepID(mustJobs(t, spec))
	waitForBytes(t, d1.Store().ResultsPath(id), 1)
	d1.Close()

	d2 := newDaemon(t, dir)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := d2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("resumed sweep ended %s (%s)", st.State, st.Error)
	}
	got, err := os.ReadFile(d2.Store().ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sweep diverged: %d vs %d bytes", len(got), len(want))
	}
}

// TestRestartSkipsStaleSpec: stored unfinished sweeps whose spec no
// longer resolves, or resolves to another sweep ID, are skipped on
// restart; they do not stop the daemon from starting or the real
// unfinished sweep beside them from resuming. Each is marked failed
// with its cause, so List shows it and the next restart skips it
// without reading its spec again.
func TestRestartSkipsStaleSpec(t *testing.T) {
	spec := testSpec("svc-stale")
	spec.Base.InstrPerCore = 200_000
	want := localBytes(t, spec)
	dir := t.TempDir()

	d1 := newDaemon(t, dir)
	if _, err := d1.Submit(spec); err != nil {
		t.Fatal(err)
	}
	id := SweepID(mustJobs(t, spec))
	waitForBytes(t, d1.Store().ResultsPath(id), 1)
	d1.Close()

	const unresolvable, misfiled = "aaaaaaaaaaaa", "bbbbbbbbbbbb"
	if _, err := d1.Store().Dir(unresolvable); err != nil {
		t.Fatal(err)
	}
	bad := `{"name":"x","workloads":["mcf"],"schemes":["NotAScheme"]}`
	if err := os.WriteFile(d1.Store().SpecPath(unresolvable), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d1.Store().SaveSpec(misfiled, testSpec("svc-misfiled")); err != nil {
		t.Fatal(err)
	}

	_, misfiledJobs := mustJobs(t, testSpec("svc-misfiled"))
	causes := map[string]string{unresolvable: "NotAScheme", misfiled: SweepID("svc-misfiled", misfiledJobs)}
	d2 := newDaemon(t, dir)
	listed, err := d2.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, stale := range []string{unresolvable, misfiled} {
		st, err := d2.Status(stale)
		if err != nil || st.State != StateFailed || !strings.Contains(st.Error, causes[stale]) {
			t.Fatalf("stale sweep %s: status %+v, %v; want failed naming %q", stale, st, err, causes[stale])
		}
		if !slices.ContainsFunc(listed, func(l Status) bool { return l.ID == stale && l.State == StateFailed }) {
			t.Fatalf("stale sweep %s not listed as failed: %+v", stale, listed)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := d2.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("resumed sweep ended %s (%s)", st.State, st.Error)
	}
	got, err := os.ReadFile(d2.Store().ResultsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed sweep diverged: %d vs %d bytes", len(got), len(want))
	}
	d2.Close()

	// The failed markers make the next restart skip both unread.
	var log bytes.Buffer
	d3, err := New(Options{StateDir: dir, Parallelism: 2, MaxActive: 2, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	d3.Close()
	if strings.Contains(log.String(), "skipping") {
		t.Fatalf("second restart re-read a stale sweep:\n%s", log.String())
	}
}

func waitForBytes(t *testing.T, path string, min int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(path); err == nil && fi.Size() >= min {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no checkpoint bytes at %s", path)
}

// TestWorkerAttachConvergence: a sweep executed partly by an attached
// worker produces the same bytes as a local run, and the worker
// actually took jobs.
func TestWorkerAttachConvergence(t *testing.T) {
	spec := testSpec("svc-worker")
	want := localBytes(t, spec)

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	wk := &Worker{Client: c, Name: "w-test", Parallel: 2}
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); wk.Run(ctx) }()

	// Wait until the broker sees the worker before submitting, so jobs
	// are actually offered.
	waitFor(t, func() bool { return d.Broker().Workers() > 0 })

	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("worker-attached sweep diverged: %d vs %d bytes", got.Len(), len(want))
	}
	snap := d.Registry().Snapshot()
	if snap["sweepd_remote_results_total"] == 0 {
		t.Fatal("no job was executed remotely")
	}
	cancel()
	<-workerDone
}

// TestEpochSweepSamplesMetrics: a sweep with EpochEvery > 0 streams
// epoch lines and drives the epoch metric series with them — one
// banshee_epochs_total increment per epoch line written.
func TestEpochSweepSamplesMetrics(t *testing.T) {
	spec := testSpec("svc-epochs")
	spec.Options.EpochEvery = 5_000

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", final.State, final.Error)
	}
	var epochs bytes.Buffer
	if _, err := c.StreamEpochs(ctx, st.ID, 0, &epochs); err != nil {
		t.Fatal(err)
	}
	lines := uint64(bytes.Count(epochs.Bytes(), []byte("\n")))
	if lines == 0 {
		t.Fatal("epoch sweep wrote no epoch lines")
	}
	series := `banshee_epochs_total{sweep="` + st.ID + `"}`
	if got := d.Registry().Snapshot()[series]; got != float64(lines) {
		t.Fatalf("%s = %v, want %d (one per epoch line)", series, got, lines)
	}
}

// TestEpochSinkReportsLostLines: epoch lines that cannot be written —
// here the file underneath is closed, as a full disk would fail them —
// are counted, and closing the sink logs one line naming the sweep, the
// count and the first error; a sink that lost nothing logs nothing.
func TestEpochSinkReportsLostLines(t *testing.T) {
	for _, lose := range []int{0, 3} {
		es, err := openEpochSink(filepath.Join(t.TempDir(), "epochs.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		es.append(runner.Job{ID: "kept"}, stats.Snapshot{})
		if lose > 0 {
			es.f.Close()
		}
		for i := 0; i < lose; i++ {
			es.append(runner.Job{ID: "lost"}, stats.Snapshot{})
		}
		var log bytes.Buffer
		es.close(&log, "sweep-x")
		got := log.String()
		if lose == 0 {
			if got != "" {
				t.Fatalf("a sink that lost nothing logged %q", got)
			}
			continue
		}
		if strings.Count(got, "\n") != 1 || !strings.Contains(got, "sweep-x") ||
			!strings.Contains(got, "3 lines lost") || !strings.Contains(got, os.ErrClosed.Error()) {
			t.Fatalf("log = %q, want one line naming sweep-x, 3 lost lines and the write error", got)
		}
	}
}

// TestEpochSweepGangs: epoch capture is a hook composed onto the
// engine's default runner, so an EpochEvery sweep still gangs, every
// job — gang lane or single — writes epoch lines, and the results stay
// byte-identical to a local run.
func TestEpochSweepGangs(t *testing.T) {
	spec := testSpec("svc-epochs-gang")
	spec.Base.WorkloadSeed = 7 // the seeds share one stream, so they gang
	spec.Options.EpochEvery = 5_000
	spec.Options.GangWidth = 4
	want := localBytes(t, spec)

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", final.State, final.Error)
	}
	var got bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("ganged epoch sweep diverged from local run: %d vs %d bytes", got.Len(), len(want))
	}
	if lanes := d.Registry().Snapshot()[`banshee_gang_lanes_total{sweep="`+st.ID+`"}`]; lanes == 0 {
		t.Fatal("EpochEvery sweep at GangWidth 4 ran no gang lanes")
	}

	var epochs bytes.Buffer
	if _, err := c.StreamEpochs(ctx, st.ID, 0, &epochs); err != nil {
		t.Fatal(err)
	}
	// Every line is exactly the job's identity plus one stats.Epoch —
	// the record bansheesim -epoch-json prints — and nothing else.
	sampled := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(epochs.Bytes()), []byte("\n")) {
		var l epochLine
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("bad epoch line %q: %v", line, err)
		}
		if l.Phase == "" {
			t.Fatalf("epoch line %q has no phase", line)
		}
		sampled[l.Job] = true
	}
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if !sampled[j.ID] {
			t.Errorf("job %s (%s/%s seed %d) wrote no epoch lines", j.ID, j.Workload, j.Scheme, j.Seed)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestLeaseExpiryRerunsLocally: a lease taken but never resolved (a
// SIGKILL'd worker) expires and the daemon re-runs the job locally —
// converging to the same bytes with no duplicate records, and a late
// result for the dead lease is refused with 410-equivalent.
func TestLeaseExpiryRerunsLocally(t *testing.T) {
	spec := testSpec("svc-expiry")
	want := localBytes(t, spec)

	dir := t.TempDir()
	d, err := New(Options{StateDir: dir, Parallelism: 2, LeaseTTL: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	// A "worker" that takes exactly one lease and vanishes without
	// reporting — the in-process equivalent of SIGKILL mid-job.
	ctx := context.Background()
	var dead struct {
		sync.Mutex
		lease string
	}
	go func() {
		for {
			id, _, _, ok := d.Broker().Lease(ctx, "vanishing", 2*time.Second)
			if ok {
				dead.Lock()
				dead.lease = id
				dead.Unlock()
				return // never renew, never resolve
			}
		}
	}()
	waitFor(t, func() bool { return d.Broker().Workers() > 0 })

	st, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	final, err := d.Wait(wctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", final.State, final.Error)
	}
	got, err := os.ReadFile(d.Store().ResultsPath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("lease-expiry sweep diverged: %d vs %d bytes", len(got), len(want))
	}
	recs, err := runner.ParseRecords(got)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, r := range recs {
		seen[fmt.Sprintf("%s|%s|%s|%s|%d", r.Matrix, r.Label, r.Workload, r.Scheme, r.Seed)]++
	}
	for coord, n := range seen {
		if n != 1 {
			t.Fatalf("coordinate %s recorded %d times", coord, n)
		}
	}
	snap := d.Registry().Snapshot()
	if snap["sweepd_lease_expiries_total"] == 0 {
		t.Fatal("no lease expiry was recorded")
	}
	// The vanished worker's lease stays on record as expired: a late
	// result is refused so it can never double-record.
	dead.Lock()
	lease := dead.lease
	dead.Unlock()
	if lease == "" {
		t.Fatal("vanishing worker never took a lease")
	}
	if err := d.Broker().Resolve(lease, "", stats.Sim{}, nil); err != ErrLeaseGone {
		t.Fatalf("late result for dead lease: err = %v, want ErrLeaseGone", err)
	}
}

// TestMultiClientGangMetrics is the acceptance scenario: two
// submitters, two attached workers, gang width > 1, per-sweep isolated
// state, correct statuses, and service metrics visible on /metrics.
func TestMultiClientGangMetrics(t *testing.T) {
	specA := testSpec("svc-multi-a")
	specA.Options.GangWidth = 2
	specB := testSpec("svc-multi-b")
	specB.Base.Seed = 99 // distinct content
	specB.Seeds = []uint64{99, 100}
	specB.Options.GangWidth = 2
	wantA := localBytes(t, specA)
	wantB := localBytes(t, specB)

	d := newDaemon(t, t.TempDir())
	c1, srv := dialTest(t, d)
	c2, _ := dialTest(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for i := 0; i < 2; i++ {
		wk := &Worker{Client: c1, Name: fmt.Sprintf("w-%d", i), Parallel: 1}
		go wk.Run(ctx)
	}
	waitFor(t, func() bool { return d.Broker().Workers() >= 2 })

	var wg sync.WaitGroup
	var gotA, gotB bytes.Buffer
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		st, err := c1.Submit(ctx, specA)
		if err == nil {
			_, err = c1.StreamResults(ctx, st.ID, 0, &gotA)
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		st, err := c2.Submit(ctx, specB)
		if err == nil {
			_, err = c2.StreamResults(ctx, st.ID, 0, &gotB)
		}
		errs[1] = err
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if !bytes.Equal(gotA.Bytes(), wantA) {
		t.Fatalf("sweep A diverged: %d vs %d bytes", gotA.Len(), len(wantA))
	}
	if !bytes.Equal(gotB.Bytes(), wantB) {
		t.Fatalf("sweep B diverged: %d vs %d bytes", gotB.Len(), len(wantB))
	}

	// Both sweeps listed, both done, isolated state dirs.
	sts, err := c1.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("listed %d sweeps", len(sts))
	}
	for _, st := range sts {
		if st.State != StateDone {
			t.Fatalf("sweep %s state %s", st.ID, st.State)
		}
		if _, err := os.Stat(d.Store().ResultsPath(st.ID)); err != nil {
			t.Fatal(err)
		}
	}

	// Service metrics are live on /metrics, with per-sweep labels.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 1<<20)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"sweepd_sweeps_submitted_total",
		"sweepd_workers_attached",
		`banshee_jobs_total{state="done",sweep="` + sts[0].ID + `"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestRegistryScopedView double-checks the label plumbing sweepd
// relies on: two scoped views share storage but produce distinct
// series.
func TestRegistryScopedView(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.With("sweep", "a").Counter("x_total", "x")
	b := reg.With("sweep", "b").Counter("x_total", "x")
	a.Inc()
	a.Inc()
	b.Inc()
	snap := reg.Snapshot()
	if snap[`x_total{sweep="a"}`] != 2 || snap[`x_total{sweep="b"}`] != 1 {
		t.Fatalf("scoped series wrong: %v", snap)
	}
}

// TestRemoteLedgerMatchesLocal covers the remote failure ledger: a
// sweep with a permanently failing point (MSHRs 0 fails validation on
// every attempt) returns through Client.RunMatrix the same failures a
// local engine run reports, and a ledger whose bytes were altered on
// disk is an error on the client, not a different failure.
func TestRemoteLedgerMatchesLocal(t *testing.T) {
	m := runner.Matrix{
		Name:      "svc-ledger",
		Base:      testBase(),
		Workloads: []string{"mcf", "lbm"},
		Schemes:   []string{"NoCache"},
		Points: []runner.Point{
			{Label: "base"},
			{Label: "nomshr", Set: json.RawMessage(`{"MSHRs":0}`)},
		},
	}
	opts := RunOptions{KeepGoing: true, Retries: 2}
	local, err := (runner.Engine{Parallelism: 2, KeepGoing: true, Retry: opts.retry()}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Failed()) != 2 {
		t.Fatalf("local run failed %d jobs, want 2", len(local.Failed()))
	}

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx := context.Background()
	remote, err := c.RunMatrix(ctx, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]runner.Record{}
	for _, f := range remote.Failed() {
		byID[f.ID] = f
	}
	if len(byID) != len(local.Failed()) {
		t.Fatalf("remote reports %d failures, local %d", len(byID), len(local.Failed()))
	}
	for _, want := range local.Failed() {
		got, ok := byID[want.ID]
		if !ok || got.Attempts != want.Attempts || got.Panicked != want.Panicked || got.Error != want.Error {
			t.Fatalf("remote failure %+v, local %+v", got, want)
		}
		if want.Attempts != 2 {
			t.Fatalf("failure made %d attempts, want 2", want.Attempts)
		}
	}

	spec, err := SpecFromMatrix(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	id := SweepID(mustJobs(t, spec))
	path := d.store.LedgerPath(id)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(b, []byte(`"attempts":2`))
	if i < 0 {
		t.Fatalf("ledger lacks an attempts field: %s", b)
	}
	b[i+len(`"attempts":`)] = '3'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := c.Ledger(ctx, id); err == nil {
		t.Fatalf("altered ledger parsed without error: %+v", recs)
	}
}

// TestRemotePanicLedgeredLikeLocal: a job that panics on an attached
// worker is ledgered exactly as a local engine ledgers it — panic:true
// with the panic's own text — not as an ordinary error. The sweep has
// one job and one attempt, so a remote result proves the attempt ran on
// the worker.
func TestRemotePanicLedgeredLikeLocal(t *testing.T) {
	m := runner.Matrix{
		Name:      "svc-panic",
		Base:      testBase(),
		Workloads: []string{"fault:panic=1,after=10:mcf"},
		Schemes:   []string{"NoCache"},
	}
	local, err := (runner.Engine{KeepGoing: true}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Failed()) != 1 || !local.Failed()[0].Panicked {
		t.Fatalf("test premise broken: local failures %+v, want one panic", local.Failed())
	}
	want := local.Failed()[0]

	d := newDaemon(t, t.TempDir())
	c, _ := dialTest(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wk := &Worker{Client: c, Name: "w-panic", Parallel: 1}
	workerDone := make(chan struct{})
	go func() { defer close(workerDone); wk.Run(ctx) }()
	waitFor(t, func() bool { return d.Broker().Workers() > 0 })

	remote, err := c.RunMatrix(ctx, m, RunOptions{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Registry().Snapshot()["sweepd_remote_results_total"]; n < 1 {
		t.Fatalf("sweepd_remote_results_total = %v, want >= 1", n)
	}
	if len(remote.Failed()) != 1 {
		t.Fatalf("remote run failed %d jobs, want 1", len(remote.Failed()))
	}
	got := remote.Failed()[0]
	if got.Panicked != want.Panicked || got.Error != want.Error || got.Attempts != want.Attempts {
		t.Fatalf("remote failure %+v, local %+v", got, want)
	}
	cancel()
	<-workerDone
}

// TestSubmitRejectsRepeatedCoordinate: an axes spec that repeats a
// workload resolves to two jobs at one coordinate; the daemon refuses
// it with 400.
func TestSubmitRejectsRepeatedCoordinate(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	_, srv := dialTest(t, d)
	body := `{"name":"x","workloads":["pagerank","pagerank"],"schemes":["NoCache"]}`
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "repeats coordinate") {
		t.Fatalf("repeated workload: status %d %s, want 400 repeats coordinate", resp.StatusCode, msg)
	}
}

// TestDaemonBadSpecStatusIgnoresName: a spec with a bad point override
// is a 400 whatever the sweep is called — even when its name reads like
// another error's text ("no sweep" was a 404, "shut down" a 503 the
// client retried).
func TestDaemonBadSpecStatusIgnoresName(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	_, srv := dialTest(t, d)
	for _, name := range []string{"ok", "no sweep", "shut down"} {
		body := fmt.Sprintf(`{"name":%q,"workloads":["mcf"],"schemes":["NoCache"],"points":[{"label":"p","set":{"Cores":"two"}}]}`, name)
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bad override") {
			t.Errorf("spec %q: status %d %s, want 400 bad override", name, resp.StatusCode, msg)
		}
	}
}

// TestSpecRejectsUnknownFields: a spec field that names no knob —
// a typo'd point override or base field — is a 400, not a default
// silently run in its place; a valid override still changes the job.
func TestSpecRejectsUnknownFields(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	_, srv := dialTest(t, d)
	for _, body := range []string{
		`{"name":"x","workloads":["mcf"],"schemes":["Alloy 1"],"points":[{"label":"p","set":{"Scheme":{"AlloyFrac":0.1}}}]}`,
		`{"name":"x","base":{"InstrPerCor":1000},"workloads":["mcf"],"schemes":["NoCache"]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unknown field") {
			t.Errorf("spec %s: status %d %s, want 400 unknown field", body, resp.StatusCode, msg)
		}
	}

	var spec Spec
	body := `{"name":"x","workloads":["mcf"],"schemes":["Alloy 1"],"points":[{"label":"base"},{"label":"p","set":{"Scheme":{"AlloyFillProb":0.1}}}]}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID == jobs[1].ID {
		t.Fatalf("override left the job unchanged: %+v", jobs)
	}
	if got := jobs[1].Config.Scheme.AlloyFillProb; got != 0.1 {
		t.Fatalf("overridden AlloyFillProb = %v, want 0.1", got)
	}
}
