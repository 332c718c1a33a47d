package runner

import (
	"context"
	"fmt"
	"time"

	"banshee/internal/errs"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// JobRunner executes one job group — a single job, or jobs with equal
// ok sim.GangKeys run as lanes of one lockstep gang — and returns one
// result per job, in order. The engine's default runs the group as one
// sim.Gang (Simulate, or Observed with metrics on); tests, chaos
// harnesses and the sweep service substitute their own to inject
// faults around — or run elsewhere instead of — the simulation.
type JobRunner func(ctx context.Context, jobs []Job) ([]stats.Sim, error)

// RetryPolicy bounds how a supervised job is retried. The zero value
// means a single attempt (no retries). Backoff is exponential from
// BaseDelay, capped at MaxDelay, with deterministic jitter derived
// from the job's content ID — so a chaos run's retry schedule is
// reproducible run to run.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job (first try
	// included). 0 and 1 both mean one attempt.
	MaxAttempts int
	// BaseDelay is the wait before the first retry (0 = no wait).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (0 = uncapped).
	MaxDelay time.Duration
}

// Attempts returns the effective total attempt count (at least 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff before retry `attempt` (1-based: the delay
// after the attempt-th failure). Jitter multiplies the exponential
// delay by a factor in [0.5, 1.0) hashed from (jobID, attempt), so
// concurrent failing jobs de-synchronize without perturbing any RNG
// the simulations use — determinism of results is untouched.
func (p RetryPolicy) Delay(jobID string, attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay << (attempt - 1)
	if d <= 0 || (p.MaxDelay > 0 && d > p.MaxDelay) {
		d = p.MaxDelay
		if d <= 0 {
			d = p.BaseDelay
		}
	}
	frac := util.HashUnit(fmt.Sprintf("%s|%d", jobID, attempt))
	return d/2 + time.Duration(frac*float64(d/2))
}

// PanicError is a recovered panic converted into an error so the
// retry/ledger machinery can treat panics and returned errors
// uniformly. Its text is "panic: <value>"; a sweep service carries the
// text and the panic flag across the wire and rebuilds the same error,
// so a remote panic is ledgered exactly like a local one.
type PanicError string

func (e PanicError) Error() string { return string(e) }

// runSupervised executes one job group under the engine's
// supervision; every attempt gets panic isolation and the optional
// per-attempt deadline (Attempt). A single job is retried per the
// RetryPolicy with deterministic jitter: a nil error means it
// succeeded, and a non-nil error is always a *errs.JobError carrying
// the job context and attempt count — except when the parent ctx was
// cancelled, which is surfaced as-is (cancellation is the sweep ending,
// not this job failing). A gang gets one attempt: a failed gang falls
// back to independent jobs, which own the retry policy. w is the
// executing worker's index (the tracer lane); em is the run's
// instrument panel (nil when metrics are off).
func (e Engine) runSupervised(ctx context.Context, run JobRunner, jobs []Job, w int, em *engineMetrics) ([]stats.Sim, error) {
	if len(jobs) > 1 {
		return e.Attempt(ctx, jobs, run)
	}
	job := jobs[0]
	max := e.Retry.Attempts()
	var lastErr error
	attempts := 0
	for attempt := 1; attempt <= max; attempt++ {
		attempts = attempt
		if em != nil {
			em.attempts.Inc()
			if attempt > 1 {
				em.retries.Inc()
			}
		}
		if e.Tracer != nil && attempt > 1 {
			e.Tracer.Instant("retry "+job.Coord(), w, "attempt", attempt)
		}
		var t0 time.Duration
		if e.Tracer != nil {
			t0 = e.Tracer.Clock()
		}
		attemptStart := time.Now()
		sts, err := e.Attempt(ctx, jobs, run)
		if em != nil {
			em.attemptDur.Observe(uint64(time.Since(attemptStart).Microseconds()))
		}
		if e.Tracer != nil {
			state := "ok"
			if err != nil {
				state = "error"
			}
			e.Tracer.Span(fmt.Sprintf("attempt %d %s", attempt, job.Coord()), w, t0, "state", state)
		}
		if err == nil {
			return sts, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The sweep is shutting down: don't retry, and don't record
			// the interruption as a job failure.
			return nil, ctx.Err()
		}
		if attempt < max {
			if !util.SleepCtx(ctx, e.Retry.Delay(job.ID, attempt)) {
				return nil, ctx.Err()
			}
		}
	}
	_, panicked := lastErr.(PanicError)
	return nil, &errs.JobError{
		Coord: job.Coord(), ID: job.ID, Attempts: attempts, Panicked: panicked, Err: lastErr,
	}
}

// Attempt runs one try of a job group: per-attempt deadline, panic
// isolation, one result per job. A panicking scheme (or workload
// source) unwinds only this attempt's stack — the worker, its queue,
// and every other in-flight group are untouched. A sweep service's
// attached worker runs each leased job through it too, so a remote
// attempt fails exactly as a local one would.
func (e Engine) Attempt(ctx context.Context, jobs []Job, run JobRunner) (sts []stats.Sim, err error) {
	if e.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.JobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			sts, err = nil, PanicError(fmt.Sprintf("panic: %v", r))
		}
	}()
	sts, err = run(ctx, jobs)
	if err == nil && len(sts) != len(jobs) {
		sts, err = nil, fmt.Errorf("runner returned %d results for %d jobs", len(sts), len(jobs))
	}
	return sts, err
}

// failureRecord renders a permanently failed job as the Record the
// ledger stores: the job's coordinates with an empty Result and the
// error context filled in. Success records never set these fields, so
// the success stream's JSON encoding is unchanged by their existence.
func failureRecord(j Job, jerr *errs.JobError) Record {
	return Record{
		ID: j.ID, Matrix: j.Matrix, Label: j.Label,
		Workload: j.Workload, Scheme: j.Scheme, Seed: j.Seed,
		Attempts: jerr.Attempts, Error: jerr.Err.Error(), Panicked: jerr.Panicked,
	}
}
