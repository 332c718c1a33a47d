package sweepd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"banshee/internal/runner"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// Worker is an attached worker process's pull loop: it long-polls the
// daemon for job leases, simulates each leased job locally, renews the
// lease while the simulation runs, and reports the outcome. Parallel
// slots run independent loops, so one worker process can hold several
// leases at once. A worker holds no durable state — killing one only
// costs the jobs it was holding leases for, which the daemon re-runs
// locally after the leases expire.
type Worker struct {
	// Client targets the daemon to join (required).
	Client *Client
	// Name identifies the worker in the daemon's liveness window; ""
	// derives one from the hostname and PID.
	Name string
	// Parallel is the number of concurrent lease slots (0 = GOMAXPROCS).
	Parallel int
	// LeaseWait is the long-poll window per lease request (0 = 25s; the
	// daemon caps it server-side).
	LeaseWait time.Duration
	// Retry paces the pull loop's backoff after transient daemon
	// errors (zero = 200ms base, 5s cap). Individual HTTP calls
	// already ride the Client's own policy; this bounds how hard a
	// worker hammers a daemon that is down or shedding load.
	Retry runner.RetryPolicy
	// Log, when non-nil, receives one line per leased job and per
	// outcome.
	Log io.Writer
}

func (wk *Worker) retryPolicy() runner.RetryPolicy {
	if wk.Retry.MaxAttempts > 0 || wk.Retry.BaseDelay > 0 {
		return wk.Retry
	}
	return runner.RetryPolicy{MaxAttempts: 8, BaseDelay: 200 * time.Millisecond, MaxDelay: 5 * time.Second}
}

func (wk *Worker) name() string {
	if wk.Name != "" {
		return wk.Name
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Run pulls and executes jobs until ctx ends. Transient daemon errors
// (restarting, unreachable) back off and retry — an attached worker
// outliving a daemon restart simply reattaches. The returned error is
// always ctx's, once the loop stops.
func (wk *Worker) Run(ctx context.Context) error {
	slots := wk.Parallel
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	wait := wk.LeaseWait
	if wait <= 0 {
		wait = 25 * time.Second
	}
	name := wk.name()
	policy := wk.retryPolicy()
	done := make(chan struct{}, slots)
	for s := 0; s < slots; s++ {
		go func(slot int) {
			defer func() { done <- struct{}{} }()
			slotName := fmt.Sprintf("%s/%d", name, slot)
			failures := 0
			for ctx.Err() == nil {
				if err := wk.pullOne(ctx, slotName, wait); err != nil && ctx.Err() == nil {
					// Exponential backoff with deterministic jitter,
					// clamped so a long outage settles at MaxDelay
					// instead of overflowing the shift.
					failures = min(failures+1, 16)
					d := policy.Delay(slotName, failures)
					if d <= 0 {
						d = time.Second
					}
					if wk.Log != nil {
						fmt.Fprintf(wk.Log, "worker %s: %v (retrying in %v)\n", slotName, err, d.Round(time.Millisecond))
					}
					util.SleepCtx(ctx, d)
				} else {
					failures = 0
				}
			}
		}(s)
	}
	for s := 0; s < slots; s++ {
		<-done
	}
	return ctx.Err()
}

// pullOne performs one lease round: poll, simulate, report. A lease
// round with no work available is a nil round.
func (wk *Worker) pullOne(ctx context.Context, slotName string, wait time.Duration) error {
	grant, ok, err := wk.lease(ctx, slotName, wait)
	if err != nil || !ok {
		return err
	}
	job := grant.Job
	if want := runner.JobKey(job.Config); job.ID != want {
		// A config that does not hash to its ID: report the failure so
		// the daemon's Dispatch resolves instead of waiting out the TTL.
		err := fmt.Errorf("worker: bad job: job %s config hashes to %s", job.ID, want)
		wk.report(ctx, grant.Lease, job.ID, nil, err)
		return err
	}
	if wk.Log != nil {
		fmt.Fprintf(wk.Log, "worker %s: leased %s (%s)\n", slotName, job.ID, job.Coord())
	}

	// Renew the lease at a third of its TTL while the simulation runs.
	// A transient renewal failure — latency spike, daemon briefly
	// partitioned — is NOT fatal: the lease stays valid until its
	// deadline, so the loop just retries sooner, and only abandons the
	// attempt once a full TTL has passed since the last confirmed
	// renewal (the broker has certainly expired the lease by then). An
	// explicit 410 Gone is the daemon saying so directly; cancel the
	// attempt — its result would be discarded anyway.
	runCtx, cancel := context.WithCancel(ctx)
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		ttl := time.Duration(grant.TTLMs) * time.Millisecond
		if ttl <= 0 {
			ttl = 3 * time.Second
		}
		interval := ttl / 3
		lastOK := time.Now()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-time.After(interval):
			}
			switch err := wk.renew(ctx, grant.Lease); {
			case err == nil:
				lastOK = time.Now()
				interval = ttl / 3
			case isGone(err), time.Since(lastOK) > ttl:
				cancel()
				return
			default:
				interval = max(ttl/6, 50*time.Millisecond)
			}
		}
	}()

	sts, simErr := runner.Engine{}.Attempt(runCtx, []runner.Job{job}, runner.Simulate)
	cancel()
	<-renewDone

	if ctx.Err() != nil {
		// Worker shutting down mid-job: report nothing; the lease
		// expires and the daemon re-runs the job locally.
		return nil
	}
	if wk.Log != nil {
		outcome := "ok"
		if simErr != nil {
			outcome = simErr.Error()
		}
		fmt.Fprintf(wk.Log, "worker %s: finished %s: %s\n", slotName, job.ID, outcome)
	}
	var st *stats.Sim
	if simErr == nil {
		st = &sts[0]
	}
	return wk.report(ctx, grant.Lease, job.ID, st, simErr)
}

// isGone reports whether err is the daemon's 410: the lease is dead.
func isGone(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusGone
}

// lease long-polls for one grant. ok=false means the window closed
// with no work. The per-attempt deadline covers the whole long-poll
// window plus slack — the daemon legitimately sits on the request.
func (wk *Worker) lease(ctx context.Context, name string, wait time.Duration) (LeaseGrant, bool, error) {
	var grant LeaseGrant
	err := wk.Client.doCall(ctx, callLease, wait+10*time.Second,
		http.MethodPost, "/v1/workers/lease",
		LeaseRequest{Worker: name, WaitMs: wait.Milliseconds()}, &grant)
	if err != nil {
		return LeaseGrant{}, false, err
	}
	if grant.Lease == "" { // 204: nothing offered
		return LeaseGrant{}, false, nil
	}
	return grant, true, nil
}

func (wk *Worker) renew(ctx context.Context, lease string) error {
	return wk.Client.do(ctx, callRenew, http.MethodPost, "/v1/workers/renew", LeaseUpdate{Lease: lease}, nil)
}

// report delivers the attempt outcome, keyed by (lease, job) so the
// daemon can dedupe redelivery: a retried report after a lost ACK is
// recognized and answered as already-accepted rather than recorded
// twice. A 410 Gone — the lease expired and the daemon re-ran the job
// — is not an error: the outcome is simply discarded, preserving the
// one-attempt-outcome-per-dispatch rule.
func (wk *Worker) report(ctx context.Context, lease, jobID string, st *stats.Sim, simErr error) error {
	upd := LeaseUpdate{Lease: lease, Job: jobID, Result: st}
	if simErr != nil {
		upd.Error = simErr.Error()
		_, upd.Panic = simErr.(runner.PanicError)
	}
	err := wk.Client.do(ctx, callReport, http.MethodPost, "/v1/workers/result", upd, nil)
	if isGone(err) {
		return nil
	}
	return err
}
