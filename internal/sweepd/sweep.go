package sweepd

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"banshee/internal/errs"
	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// Sweep states, in lifecycle order. queued and running are live;
// done, failed, and cancelled are terminal (persisted in done.json).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Status is a sweep's externally visible state — what GET
// /v1/sweeps/{id}/status returns while the sweep runs and what the
// done marker persists once it finishes.
type Status struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Jobs is the sweep's total job count; Done counts completed jobs
	// (executed, reused, or restored from the checkpoint), Failed the
	// permanently failed ones.
	Jobs   int `json:"jobs"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
	// Executed/Cached split the completed jobs of the finishing run
	// (terminal states only; zero while running).
	Executed int `json:"executed,omitempty"`
	Cached   int `json:"cached,omitempty"`
	// Error carries the abort reason for state "failed".
	Error string `json:"error,omitempty"`
	// FinishedAt is set on terminal statuses (RFC 3339, UTC).
	FinishedAt string `json:"finished_at,omitempty"`
}

// Terminal reports whether the state is one a sweep never leaves on
// its own (a new submit of the same spec restarts failed/cancelled).
func (st Status) Terminal() bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCancelled
}

// sweep is one live sweep inside the daemon: the resolved spec, the
// engine run's context, and the scoped metric handles status is
// computed from.
type sweep struct {
	id   string
	spec Spec
	jobs []runner.Job

	runCtx    context.Context
	cancel    context.CancelFunc
	cancelled atomic.Bool   // user-requested cancel (vs daemon shutdown)
	finished  chan struct{} // closed when the run goroutine exits

	// Engine counters, read live for /status. The engine registers
	// these same names on the same scoped registry view, so these are
	// the exact counters it increments. The base values snapshot the
	// counters at this run's start: a restarted sweep reuses the same
	// scoped series (counters are cumulative across restarts), so the
	// run's own progress is the delta.
	cDone, cReused, cFailed          *obs.Counter
	baseDone, baseReused, baseFailed uint64

	mu    sync.Mutex
	final *Status // terminal status, once reached
}

// status renders the sweep's current externally visible state.
func (sw *sweep) status() Status {
	sw.mu.Lock()
	if sw.final != nil {
		st := *sw.final
		sw.mu.Unlock()
		return st
	}
	sw.mu.Unlock()
	st := Status{
		ID: sw.id, Name: sw.spec.Name, State: StateRunning,
		Jobs: len(sw.jobs),
	}
	if sw.cDone != nil {
		st.Done = int(sw.cDone.Value() + sw.cReused.Value() - sw.baseDone - sw.baseReused)
		st.Failed = int(sw.cFailed.Value() - sw.baseFailed)
	}
	if st.Done == 0 && st.Failed == 0 {
		st.State = StateQueued
	}
	return st
}

// setFinal records the sweep's terminal status.
func (sw *sweep) setFinal(st Status) {
	sw.mu.Lock()
	sw.final = &st
	sw.mu.Unlock()
}

// run executes the sweep to a terminal state (or daemon shutdown).
// It is the body of the sweep's goroutine: acquire a run slot, open
// the checkpoint sink in resume mode, run the engine with the broker
// wrapping its runner, and persist the outcome. A daemon shutdown mid-
// run leaves no done marker, which is exactly what makes the sweep
// resume on the next daemon start.
func (d *Daemon) run(sw *sweep) {
	defer close(sw.finished)
	defer d.wg.Done()

	ctx := sw.runCtx
	// Run slot: bounds concurrent sweeps so a burst of submissions
	// queues instead of oversubscribing the host.
	select {
	case d.sem <- struct{}{}:
		defer func() { <-d.sem }()
	case <-ctx.Done():
		d.finish(sw, nil, ctx.Err())
		return
	}
	d.active.Add(1)
	defer d.active.Add(-1)

	rs, err := d.execute(ctx, sw)
	d.finish(sw, rs, err)
}

// execute performs one engine run of the sweep over its state files.
func (d *Daemon) execute(ctx context.Context, sw *sweep) (rs *runner.ResultSet, err error) {
	sink, err := runner.OpenSink(d.store.ResultsPath(sw.id), true)
	if err != nil {
		return nil, err
	}
	// The daemon's checkpoint is the system of record for resume, so
	// each flushed record is also fsynced: a machine crash loses at most
	// the in-flight line, never an acknowledged record.
	sink.SetSync(true)
	defer func() {
		if cerr := sink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sweepd: sink close: %w", cerr)
		}
	}()

	opts := sw.spec.Options
	reg := d.reg.With("sweep", sw.id)
	var onEpoch func(runner.Job, stats.Snapshot)
	if opts.EpochEvery > 0 {
		// Epoch capture is a consumer composed onto the default
		// runner's sim.Gang.Observe, so singles and gang lanes alike
		// stream epoch lines while the same hook keeps the scoped
		// metric series moving.
		// Remote attempts don't stream (the worker has no epoch
		// channel), so the epochs stream is observability, not part of
		// the byte-identity contract the results stream carries.
		epochs, err := openEpochSink(d.store.EpochsPath(sw.id))
		if err != nil {
			return nil, err
		}
		defer epochs.close(d.opts.Log, sw.id)
		onEpoch = epochs.append
	}
	eng := runner.Engine{
		Parallelism: d.opts.Parallelism,
		Sink:        sink,
		Retry:       opts.retry(),
		JobTimeout:  opts.jobTimeout(),
		KeepGoing:   opts.KeepGoing,
		FailedOut:   d.store.LedgerPath(sw.id),
		GangWidth:   opts.GangWidth,
		JobRunner:   d.broker.runner(reg, runner.Observed(reg, opts.EpochEvery, onEpoch)),
		Metrics:     reg,
		Progress:    d.opts.Log,
	}
	return eng.RunJobs(ctx, sw.spec.Name, sw.spec.BaseSeed(), sw.jobs)
}

// finish resolves the sweep to its terminal state and persists the
// done marker — unless the daemon is shutting down, in which case the
// sweep stays unfinished on disk and resumes on the next start.
func (d *Daemon) finish(sw *sweep, rs *runner.ResultSet, err error) {
	st := Status{ID: sw.id, Name: sw.spec.Name, Jobs: len(sw.jobs)}
	switch {
	case err == nil:
		st.State = StateDone
		st.Done = len(rs.Records())
		st.Failed = len(rs.Failed())
		st.Executed = rs.Executed
		st.Cached = rs.Cached
	case d.baseCtx.Err() != nil && !sw.cancelled.Load():
		// Daemon shutdown: deliberately no terminal state and no done
		// marker; a restarted daemon re-leases the unfinished work.
		sw.setFinal(Status{ID: sw.id, Name: sw.spec.Name, Jobs: len(sw.jobs), State: StateQueued})
		return
	case sw.cancelled.Load() && errorsIsCancel(err):
		st.State = StateCancelled
	case errors.Is(err, errs.ErrDiskFull):
		// Disk full is environmental, not a property of the sweep:
		// pause rather than fail. No done marker is written, so the
		// checkpoint prefix stays the resume point — a daemon restart
		// (or a resubmit of the same spec) continues the sweep once an
		// operator frees space.
		sw.setFinal(Status{ID: sw.id, Name: sw.spec.Name, Jobs: len(sw.jobs),
			State: StateQueued, Error: err.Error()})
		return
	default:
		st.State = StateFailed
		st.Error = err.Error()
	}
	if werr := d.store.MarkDone(sw.id, st); werr != nil {
		if errors.Is(werr, errs.ErrDiskFull) {
			// Same pause semantics when the marker itself can't be
			// written: the next run converges from the checkpoint.
			sw.setFinal(Status{ID: sw.id, Name: sw.spec.Name, Jobs: len(sw.jobs),
				State: StateQueued, Error: werr.Error()})
			return
		}
		st.State = StateFailed
		st.Error = fmt.Sprintf("%v (terminal state not persisted: %v)", st.Error, werr)
	}
	if done, ok, _ := d.store.LoadDone(sw.id); ok {
		st = done // pick up FinishedAt
	}
	// Count before publishing: a client that sees the terminal state
	// must also see it counted.
	if d.sweepsFinished != nil {
		d.sweepsFinished.Inc()
	}
	sw.setFinal(st)
}

// errorsIsCancel reports whether err wraps context cancellation at any
// depth — the engine wraps ctx.Err() in its own message.
func errorsIsCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// epochSink streams per-job epoch snapshots to a JSONL file. Lines
// from concurrently executing jobs interleave in completion order —
// each line carries its job's identity, so consumers group by job
// rather than by position. Reset (truncated) at each run start, like
// the failure ledger: only the latest run's series are current.
type epochSink struct {
	mu   sync.Mutex
	f    *os.File
	err  error // why the first lost line was not written
	lost int   // lines not written
}

// epochLine is one epoch sample on the wire: the job's identity plus
// the stats.Epoch record every epoch stream writes.
type epochLine struct {
	Job      string `json:"job"`
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	Seed     uint64 `json:"seed"`
	stats.Epoch
}

func openEpochSink(path string) (*epochSink, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweepd: epoch sink: %w", err)
	}
	return &epochSink{f: f}, nil
}

// append streams one lane's epoch snapshot as a line of its job.
func (es *epochSink) append(job runner.Job, snap stats.Snapshot) {
	b, err := json.Marshal(epochLine{
		Job: job.ID, Workload: job.Workload, Scheme: job.Scheme, Seed: job.Seed,
		Epoch: snap.Epoch(),
	})
	es.mu.Lock()
	defer es.mu.Unlock()
	if err == nil {
		_, err = es.f.Write(append(b, '\n'))
	}
	if err != nil {
		es.err = cmp.Or(es.err, err)
		es.lost++
	}
}

// close closes the sink. If any line was lost, or the close failed, it
// logs one line to log naming sweep id, the count and the first error.
func (es *epochSink) close(log io.Writer, id string) {
	es.mu.Lock()
	defer es.mu.Unlock()
	err := es.f.Close()
	if es.err != nil {
		err = fmt.Errorf("%d lines lost, first: %w", es.lost, es.err)
	}
	if err != nil && log != nil {
		fmt.Fprintf(log, "sweepd: sweep %s: epochs.jsonl: %v\n", id, err)
	}
}
