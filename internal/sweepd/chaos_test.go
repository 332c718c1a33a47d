// Partition-tolerance contract tests: the service must converge to
// local-run bytes through injected network faults, dedupe redelivered
// reports, shed load with 429 instead of queueing without bound, and
// pause — not corrupt — when the disk fills.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	berrs "banshee/internal/errs"
	"banshee/internal/fault/netfault"
	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// fastRetry keeps chaos tests quick: many attempts, tiny backoff.
var fastRetry = runner.RetryPolicy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// brokerWithWorker builds a bare broker and registers worker liveness
// (a Lease poll), so Dispatch offers instead of declining immediately.
func brokerWithWorker(t *testing.T, ttl time.Duration) *Broker {
	t.Helper()
	b := NewBroker(ttl, nil)
	b.Lease(context.Background(), "w", time.Millisecond)
	return b
}

// dispatchOne runs b.Dispatch(job) in a goroutine and leases the offer
// as worker "w", returning the lease ID and the dispatch result channel.
func dispatchOne(t *testing.T, b *Broker, job runner.Job) (string, chan dispatchResult) {
	t.Helper()
	done := make(chan dispatchResult, 1)
	go func() {
		st, handled, err := b.Dispatch(context.Background(), job)
		done <- dispatchResult{st: st, handled: handled, err: err}
	}()
	var id string
	waitFor(t, func() bool {
		lid, _, _, ok := b.Lease(context.Background(), "w", 50*time.Millisecond)
		id = lid
		return ok
	})
	return id, done
}

type dispatchResult struct {
	st      stats.Sim
	handled bool
	err     error
}

// TestBrokerRenewAtTTLBoundary: a lease renewed across several TTL
// windows — including a renewal landing just before the deadline the
// expiry timer is watching — stays alive; once renewals stop, the
// lease expires, Dispatch falls back local, and both Renew and Resolve
// for the dead lease answer ErrLeaseGone.
//
// The renewals are paced by sleeps, which a loaded host can overshoot
// past the TTL. A refused renewal or an early give-up therefore fails
// only when it provably happened while the lease was alive; a try the
// host overslept is re-run, and the test fails if no try of a few is
// unambiguous.
func TestBrokerRenewAtTTLBoundary(t *testing.T) {
	const tries = 5
	ttl := 250 * time.Millisecond
	for try := 1; try <= tries; try++ {
		if renewAcrossTTLs(t, ttl) {
			return
		}
		t.Logf("try %d: the host overslept the TTL between renewals; re-running", try)
	}
	t.Fatalf("no try of %d kept its renewals within the TTL; the host was too loaded to tell", tries)
}

// renewAcrossTTLs runs the renewal scenario once. It returns false
// when a renewal was refused, or Dispatch gave up, only after the
// lease's earliest possible deadline had passed — the outcome the host
// oversleeping would also produce.
func renewAcrossTTLs(t *testing.T, ttl time.Duration) bool {
	b := brokerWithWorker(t, ttl)
	// The lease is granted, and every renewal moves its deadline, no
	// earlier than the start of the call: alive is a lower bound on
	// the deadline.
	alive := time.Now().Add(ttl)
	id, done := dispatchOne(t, b, runner.Job{ID: "job-renew"})
	renew := func(what string) bool {
		start := time.Now()
		err := b.Renew(id)
		if err == nil {
			alive = start.Add(ttl)
			return true
		}
		if time.Now().Before(alive) {
			t.Fatalf("%s: %v", what, err)
		}
		return false
	}

	// Survive three full TTLs: regular renewals, then one cut close to
	// the deadline so the expiry timer races the renewal.
	for i := 0; i < 5; i++ {
		time.Sleep(ttl / 2)
		if !renew(fmt.Sprintf("renew %d", i)) {
			return false
		}
	}
	time.Sleep(ttl - 30*time.Millisecond) // renew at the boundary
	if !renew("boundary renew") {
		return false
	}
	select {
	case r := <-done:
		if time.Now().Before(alive) {
			t.Fatalf("dispatch gave up on a renewed lease: %+v", r)
		}
		return false
	default:
	}

	// Stop renewing: the lease must expire and the attempt fall back.
	r := <-done
	if r.handled || r.err != nil {
		t.Fatalf("expired lease dispatch = %+v, want unhandled", r)
	}
	if err := b.Renew(id); err != ErrLeaseGone {
		t.Fatalf("renew after expiry: %v, want ErrLeaseGone", err)
	}
	if err := b.Resolve(id, "job-renew", stats.Sim{}, nil); err != ErrLeaseGone {
		t.Fatalf("report after expiry: %v, want ErrLeaseGone", err)
	}
	return true
}

// TestBrokerDuplicateReportDedupe: the first report for a (lease, job
// key) delivers exactly one Dispatch outcome; a redelivered identical
// report is answered as already-accepted (nil) without a second
// outcome; a report under a different job key is refused.
func TestBrokerDuplicateReportDedupe(t *testing.T) {
	b := brokerWithWorker(t, time.Second)
	id, done := dispatchOne(t, b, runner.Job{ID: "job-dup"})

	want := stats.Sim{Cycles: 42}
	if err := b.Resolve(id, "job-dup", want, nil); err != nil {
		t.Fatalf("first report: %v", err)
	}
	r := <-done
	if !r.handled || r.err != nil || r.st.Cycles != want.Cycles {
		t.Fatalf("dispatch outcome = %+v", r)
	}
	// Redelivery — the wire duplicated the report, or the worker
	// retried after a lost ACK. Must be the same success, recorded once.
	for i := 0; i < 3; i++ {
		if err := b.Resolve(id, "job-dup", want, nil); err != nil {
			t.Fatalf("redelivered report %d: %v", i, err)
		}
	}
	// A different job key against the same tombstone is not a
	// duplicate — it is a misdirected report, and must be refused.
	if err := b.Resolve(id, "job-other", want, nil); err != ErrLeaseGone {
		t.Fatalf("mismatched redelivery: %v, want ErrLeaseGone", err)
	}
	select {
	case r := <-done:
		t.Fatalf("second outcome delivered: %+v", r)
	default:
	}
}

// TestBrokerWrongJobKeyLiveLease: a report whose job key does not
// match the live lease is refused without killing the lease, and the
// correctly keyed report still lands.
func TestBrokerWrongJobKeyLiveLease(t *testing.T) {
	b := brokerWithWorker(t, time.Second)
	id, done := dispatchOne(t, b, runner.Job{ID: "job-live"})

	if err := b.Resolve(id, "job-wrong", stats.Sim{}, nil); err != ErrLeaseGone {
		t.Fatalf("wrong-key report: %v, want ErrLeaseGone", err)
	}
	if err := b.Renew(id); err != nil {
		t.Fatalf("lease killed by refused report: %v", err)
	}
	if err := b.Resolve(id, "job-live", stats.Sim{Cycles: 7}, nil); err != nil {
		t.Fatalf("correct report: %v", err)
	}
	r := <-done
	if !r.handled || r.st.Cycles != 7 {
		t.Fatalf("dispatch outcome = %+v", r)
	}
}

// TestReportWithoutJobKeyRejected: a lease report POSTed without its
// job key is refused with 400 and leaves the lease live; the same
// report with the right key then resolves it.
func TestReportWithoutJobKeyRejected(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	b := d.Broker()
	b.Lease(context.Background(), "w", time.Millisecond)
	id, done := dispatchOne(t, b, runner.Job{ID: "job-keyed"})

	post := func(upd LeaseUpdate) int {
		t.Helper()
		body, err := json.Marshal(upd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/workers/result", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	res := &stats.Sim{Cycles: 9}
	if code := post(LeaseUpdate{Lease: id, Result: res}); code != http.StatusBadRequest {
		t.Fatalf("keyless report: status %d, want 400", code)
	}
	if err := b.Renew(id); err != nil {
		t.Fatalf("lease killed by keyless report: %v", err)
	}
	if code := post(LeaseUpdate{Lease: id, Job: "job-keyed", Result: res}); code != http.StatusNoContent {
		t.Fatalf("keyed report: status %d, want 204", code)
	}
	if r := <-done; !r.handled || r.err != nil || r.st.Cycles != res.Cycles {
		t.Fatalf("dispatch outcome = %+v", r)
	}
}

// noRetryClient dials d with retries disabled, so overload answers
// surface to the test instead of being absorbed by backoff.
func noRetryClient(t *testing.T, srv *httptest.Server) *Client {
	t.Helper()
	c, err := DialWith(srv.URL, ClientOptions{Retry: runner.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDaemonSubmitBackpressure429: with the submission queue at its
// cap, a genuinely new submit is shed with 429 + Retry-After, while
// idempotent resubmits of queued sweeps still answer.
func TestDaemonSubmitBackpressure429(t *testing.T) {
	d, err := New(Options{StateDir: t.TempDir(), Parallelism: 1, MaxActive: 1, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c := noRetryClient(t, srv)
	ctx := context.Background()

	long := func(name string, seed uint64) Spec {
		s := testSpec(name)
		s.Base.InstrPerCore = 500_000
		s.Seeds = []uint64{seed}
		return s
	}
	running := long("svc-shed-a", 1)
	stA, err := c.Submit(ctx, running)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until sweep A is actually running (has landed a record), so
	// it no longer counts against the queue. The engine appends a record
	// before it counts the job done, and the queue counts a sweep with
	// no done job as queued, so wait on the queue count itself.
	waitForBytes(t, d.Store().ResultsPath(stA.ID), 1)
	waitFor(t, func() bool { return d.queuedCount() == 0 })

	queued := long("svc-shed-b", 2)
	stB, err := c.Submit(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}

	// The queue (max 1) is full: a new submission is shed.
	_, err = c.Submit(ctx, long("svc-shed-c", 3))
	if !IsOverloaded(err) {
		t.Fatalf("submit over full queue: %v, want overloaded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 429 || ae.RetryAfter <= 0 {
		t.Fatalf("shed response = %+v, want 429 with Retry-After", ae)
	}
	// Idempotent resubmission of an already-queued sweep is not new
	// work and must not be shed.
	again, err := c.Submit(ctx, queued)
	if err != nil || again.ID != stB.ID {
		t.Fatalf("resubmit of queued sweep: %+v, %v", again, err)
	}
	if n := d.Registry().Snapshot()[`sweepd_load_shed_total{reason="submit"}`]; n < 1 {
		t.Fatalf("sweepd_load_shed_total{reason=submit} = %v, want >= 1", n)
	}
	c.Cancel(ctx, stA.ID)
	c.Cancel(ctx, stB.ID)
}

// TestDaemonStreamBackpressure429: per-client-host stream slots are
// bounded; an over-limit stream is shed with 429 instead of admitted.
func TestDaemonStreamBackpressure429(t *testing.T) {
	d, err := New(Options{StateDir: t.TempDir(), Parallelism: 1, MaxActive: 1, MaxClientStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	c := noRetryClient(t, srv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	spec := testSpec("svc-shed-stream")
	spec.Base.InstrPerCore = 2_000_000 // long enough to hold a live follow
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the single stream slot with a live follow.
	holding := make(chan error, 1)
	go func() {
		var sink bytes.Buffer
		_, err := c.StreamResults(ctx, st.ID, 0, &sink)
		holding <- err
	}()
	waitFor(t, func() bool {
		return d.Registry().Snapshot()[`sweepd_load_shed_total{reason="stream"}`] >= 1 || func() bool {
			var buf bytes.Buffer
			_, err := noRetryClient(t, srv).StreamResults(ctx, st.ID, 0, &buf)
			return IsOverloaded(err)
		}()
	})
	if n := d.Registry().Snapshot()[`sweepd_load_shed_total{reason="stream"}`]; n < 1 {
		t.Fatalf("sweepd_load_shed_total{reason=stream} = %v, want >= 1", n)
	}
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	<-holding
}

// TestNetChaosConvergence is the tentpole acceptance test, in-process:
// every HTTP exchange — submissions, status polls, streams, and the
// whole worker lease protocol — rides a transport injecting ~10%
// faults (dropped requests, lost responses, truncated bodies, 5xx,
// duplicate delivery, latency), and the sweep still converges to
// results byte-identical to a local engine run with zero duplicate
// records.
func TestNetChaosConvergence(t *testing.T) {
	spec := testSpec("svc-netchaos")
	want := localBytes(t, spec)

	d, err := New(Options{StateDir: t.TempDir(), Parallelism: 2, MaxActive: 2, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	plan := func(seed uint64) netfault.Plan {
		return netfault.Plan{
			Seed:          seed,
			DropReqRate:   0.04,
			DropRespRate:  0.03,
			TruncateRate:  0.02,
			Err5xxRate:    0.04,
			DuplicateRate: 0.02,
			LatencyRate:   0.02,
			Latency:       time.Millisecond,
		}
	}
	chaosDial := func(seed uint64) *Client {
		c, err := DialWith(srv.URL, ClientOptions{
			Transport: netfault.NewTransport(plan(seed), nil),
			Retry:     fastRetry,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	baseFaults := netfault.InjectedTotal()
	baseRetries := NetRetryTotal()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		wk := &Worker{Client: chaosDial(uint64(100 + i)), Name: fmt.Sprintf("chaos-w-%d", i),
			Parallel: 1, Retry: fastRetry}
		go wk.Run(ctx)
	}
	waitFor(t, func() bool { return d.Broker().Workers() > 0 })

	c := chaosDial(1)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit through chaos: %v", err)
	}
	var got bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &got); err != nil {
		t.Fatalf("stream through chaos: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("chaos sweep diverged from local run: %d vs %d bytes", got.Len(), len(want))
	}
	recs, err := runner.ParseRecords(got.Bytes())
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
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	// The chaos actually happened, and the retry machinery absorbed it.
	if netfault.InjectedTotal() == baseFaults {
		t.Fatal("no network faults were injected — the test exercised nothing")
	}
	if NetRetryTotal() == baseRetries {
		t.Fatal("no call was retried — fault rates too low to matter")
	}
	// Any registry exposes the process-wide retry tallies unwired. The
	// workers still poll, so the scrape is bracketed by two reads.
	lo := NetRetryTotal()
	var scraped float64
	for name, v := range obs.NewRegistry().Snapshot() {
		if strings.HasPrefix(name, "banshee_net_retries_total{") {
			scraped += v
		}
	}
	if hi := NetRetryTotal(); scraped < float64(lo) || scraped > float64(hi) {
		t.Fatalf("banshee_net_retries_total series sum to %g, want NetRetryTotal() in [%d, %d]", scraped, lo, hi)
	}
}

// TestDiskFullPausesSweep: a run failing with ErrDiskFull must leave
// the sweep paused — final status queued, no done marker — so a
// restart or resubmit resumes it once space is freed.
func TestDiskFullPausesSweep(t *testing.T) {
	d := newDaemon(t, t.TempDir())
	spec := testSpec("svc-enospc")
	jobs, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sw := &sweep{id: "enospc-test", spec: spec, jobs: jobs,
		finished: make(chan struct{})}
	d.finish(sw, nil, &berrs.DiskFullError{Op: "sink append", Err: syscall.ENOSPC})

	st := sw.status()
	if st.State != StateQueued || st.Error == "" {
		t.Fatalf("disk-full sweep status = %+v, want queued with error", st)
	}
	if _, ok, _ := d.Store().LoadDone("enospc-test"); ok {
		t.Fatal("done marker written for a disk-full sweep — it can never resume")
	}
}
