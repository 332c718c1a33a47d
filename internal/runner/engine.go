package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"banshee/internal/errs"
	"banshee/internal/obs"
	"banshee/internal/sim"
	"banshee/internal/stats"
)

// Engine executes matrices on a worker pool fed by one ordered queue:
// workers take job groups in matrix enumeration order (points, then
// workloads, then schemes, then seeds), the order the sink flushes
// them, so a finished result waits off disk only behind groups still
// in flight. A kernel workload's graph substrate is built once per
// config and shared through internal/graph's cache, which also dedupes
// concurrent first builds; enumeration order keeps that cache's
// working set to one config point's substrates.
type Engine struct {
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives one line per completed job and a
	// final per-matrix summary.
	Progress io.Writer
	// Sink, when non-nil, streams results to disk and supplies the
	// already-completed records a resumed run skips.
	Sink *Sink

	// Supervision. Every job always runs under panic isolation (a
	// panicking scheme fails that job, never the process); the fields
	// below tune what happens next.

	// Retry bounds per-job retries with exponential backoff and
	// deterministic jitter. Zero value = one attempt.
	Retry RetryPolicy
	// JobTimeout, when positive, bounds each attempt with
	// context.WithTimeout; a blown deadline is a retryable job failure
	// wrapping context.DeadlineExceeded.
	JobTimeout time.Duration
	// KeepGoing selects graceful degradation: a permanently failed job
	// is recorded (FailedOut, ResultSet.Failed) and the sweep completes
	// the remaining jobs. False preserves fail-fast: the first
	// permanent failure aborts the run with a *errs.JobError.
	KeepGoing bool
	// FailedOut, when set, is the failure ledger: the file permanently
	// failed jobs stream to under KeepGoing, as checksummed sink
	// records that ParseRecords reads back. The engine owns it: every
	// run first removes the old file (failed jobs are
	// retryable-on-resume, so only the latest run's failures are
	// current), opens it on the first failure, so a clean run leaves
	// no file, and closes it before returning.
	FailedOut string
	// JobRunner overrides how a job group executes (nil = the default:
	// Simulate, or Observed when Metrics is set). Every group — one
	// job, or the lanes of a gang — goes through it, so an override
	// sees every job and ganging stays on. It is the engine's one
	// execution seam: chaos harnesses wrap the default to inject panics,
	// errors, and stalls around real simulations, and a sweep service
	// wraps it to lease single jobs to attached worker processes.
	JobRunner JobRunner

	// GangWidth, when ≥ 2, lets the engine execute up to that many
	// jobs sharing a front-end shape (sim.GangKey) as one group: lanes
	// of one lockstep sim.Gang. Such jobs — same workload stream,
	// differing only by seed, scheme or back-end knobs — amortize one
	// shared front end across their lanes. Results are
	// byte-identical to independent execution, so the sink,
	// checkpoint/resume, the failure ledger, and content-key reuse all
	// keep operating per job; a gang that fails for any reason falls
	// back to running its members as independent supervised jobs. 0
	// and 1 disable ganging: every group is one job, a width-1 lane.
	GangWidth int

	// Observability. All nil/zero by default: the disabled path adds no
	// allocations, no atomics, and no output changes.

	// Metrics, when non-nil, receives the engine's instrument panel
	// (job states, attempts/retries, worker occupancy, gang shape,
	// checkpoint flush lag) and — under the default JobRunner — the
	// per-epoch simulation series of every lane, gang lanes included
	// (sim.Gang.Observe at sim.DefaultEpochEvery).
	Metrics *obs.Registry
	// Tracer, when non-nil, records the sweep timeline: one span per
	// job and per attempt on the executing worker's lane, gang spans,
	// and instants for retries and gang fallbacks — renderable as
	// Chrome trace_event JSON.
	Tracer *obs.Tracer
	// ProgressEvery, when positive with Progress set, replaces the
	// per-job "done/reuse/gang" lines with one rate-limited sweep
	// progress line per interval. Failure notes and the final matrix
	// summary still print.
	ProgressEvery time.Duration
}

// jobRunner resolves the runner every group attempt goes through.
func (e Engine) jobRunner() JobRunner {
	switch {
	case e.JobRunner != nil:
		return e.JobRunner
	case e.Metrics != nil:
		return Observed(e.Metrics, 0, nil)
	}
	return Simulate
}

// Run executes the matrix and returns its indexed results. The sink's
// leading records that line up with the matrix enumeration (matched by
// coordinate and content ID) are taken as done; records beyond the
// first mismatch — an edited sweep — are pruned from the file, with
// their still-valid results reused by content key instead of
// re-simulated. Identical configs reached under different coordinates
// also simulate once: every job is settled before any worker starts,
// and a later copy of a pending config is its twin, completing or
// failing with it without ever occupying a worker. Results stream to
// the sink in matrix enumeration order, so a killed run's file is a
// clean prefix and a resumed run completes it byte-identically.
//
// Cancelling ctx stops the sweep promptly: workers abandon their
// in-flight simulations at the next step boundary, no partial result
// reaches the sink, and Run returns an error matching ctx.Err(). The
// sink then holds a clean enumeration-order prefix of completed jobs,
// so re-running with the same matrix and a resume-opened sink
// completes the file byte-identically to an uninterrupted run.
func (e Engine) Run(ctx context.Context, m Matrix) (*ResultSet, error) {
	jobs, err := m.Jobs()
	if err != nil {
		return nil, err
	}
	return e.RunJobs(ctx, m.Name, m.BaseSeed(), jobs)
}

// RunJobs executes an already-enumerated job list under the matrix
// name — the entry point for callers that ship resolved jobs across a
// process boundary (a sweep service accepting wire specs) instead of
// re-enumerating a Matrix. Semantics are exactly Run's: the jobs'
// order is the enumeration order the sink contract is defined over,
// so the same list always converges to the same bytes. One pass over
// the list settles each job as part of the sink's on-disk prefix,
// reused by content key from the sink, a twin of an earlier pending
// job, or pending; only pending jobs reach the job queue.
func (e Engine) RunJobs(ctx context.Context, name string, baseSeed uint64, jobs []Job) (*ResultSet, error) {
	if e.FailedOut != "" {
		if err := os.Remove(e.FailedOut); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("runner: ledger reset: %w", err)
		}
	}

	em := newEngineMetrics(e.Metrics)
	var prog *obs.Progress
	if e.Progress != nil && e.ProgressEvery > 0 {
		prog = obs.NewProgress(e.Progress, e.ProgressEvery)
	}
	var (
		mu       sync.Mutex
		firstErr error
		twins    = map[int][]int{} // first pending index → its later identical jobs
		results  = make([]*Record, len(jobs))
		failures = make([]*Record, len(jobs)) // ledger records (KeepGoing)
		next     = 0                          // flush frontier (enumeration order)
		doneN    = 0                          // filled slots (successes + failures)
		failedN  = 0                          // permanently failed slots
		executed = 0                          // jobs simulated
		cached   = 0                          // jobs served from the sink or deduplicated
		ledger   *Sink                        // FailedOut, opened on the first failure
	)
	// flushLocked streams the completed prefix to the sink in order. A
	// permanently failed job occupies its slot without a record: the
	// frontier steps over it so later successes still reach the disk,
	// and the resulting gap is what makes the job retryable-on-resume.
	flushLocked := func() {
		for next < len(jobs) && (results[next] != nil || failures[next] != nil) {
			if results[next] != nil && e.Sink != nil && firstErr == nil {
				if err := e.Sink.Append(*results[next]); err != nil {
					firstErr = err
				}
				if em != nil {
					em.flushed.Inc()
				}
			}
			next++
		}
		if em != nil {
			em.flushLag.Set(float64(doneN - next))
		}
	}
	// completeLocked records job i's result, then completes its twins
	// with the same result as reuse.
	var completeLocked func(i int, st stats.Sim, how string)
	completeLocked = func(i int, st stats.Sim, how string) {
		j := jobs[i]
		results[i] = &Record{ID: j.ID, Matrix: j.Matrix, Label: j.Label,
			Workload: j.Workload, Scheme: j.Scheme, Seed: j.Seed, Result: st}
		doneN++
		flushLocked()
		if em != nil {
			if how == "reuse" {
				em.jobsReused.Inc()
			} else {
				em.jobsDone.Inc()
			}
		}
		if prog != nil {
			prog.Maybe(doneN, len(jobs), executed, cached, failedN)
		} else if e.Progress != nil {
			fmt.Fprintf(e.Progress, "%-6s %-40s cycles=%d\n", how, j.Coord(), st.Cycles)
		}
		for _, t := range twins[i] {
			cached++
			completeLocked(t, st, "reuse")
		}
	}
	// failLocked records job i's permanent failure (KeepGoing mode):
	// ledger line, failure slot for the flush frontier, progress note.
	// Its twins fail with it: the injected faults are keyed by the same
	// content ID, so an identical config would only fail identically.
	var failLocked func(i int, jerr *errs.JobError)
	failLocked = func(i int, jerr *errs.JobError) {
		rec := failureRecord(jobs[i], jerr)
		failures[i] = &rec
		doneN++
		failedN++
		if e.FailedOut != "" && firstErr == nil {
			if ledger == nil {
				ledger, firstErr = OpenSink(e.FailedOut, false)
			}
			if ledger != nil {
				firstErr = ledger.Append(rec)
			}
		}
		flushLocked()
		if em != nil {
			em.jobsFailed.Inc()
		}
		if e.Progress != nil {
			fmt.Fprintf(e.Progress, "%-6s %-40s %v\n", "FAIL", jobs[i].Coord(), jerr.Err)
		}
		for _, t := range twins[i] {
			failLocked(t, jerr)
		}
	}

	// Settle every job before any worker starts. The file must stay an
	// enumeration-order prefix of this matrix, so only the leading
	// records that line up with the jobs count as done on disk; anything
	// after the first mismatch (an edited sweep, or a file from a
	// different matrix) is pruned. Every later job is then reused by
	// content key from the loaded records (so pruned-but-still-valid
	// results are re-appended in order rather than re-simulated),
	// attached as a twin to an earlier pending job with the same content
	// ID, or queued.
	k := 0
	known := map[string]stats.Sim{}
	if e.Sink != nil {
		if d := e.Sink.Dropped(); d > 0 && e.Progress != nil {
			fmt.Fprintf(e.Progress, "sink: dropped %d corrupt checkpoint record(s) on resume\n", d)
		}
		loaded := e.Sink.Loaded()
		for k < len(loaded) && k < len(jobs) &&
			loaded[k].ID == jobs[k].ID &&
			coordKey(loaded[k].Matrix, loaded[k].Label, loaded[k].Workload, loaded[k].Scheme, loaded[k].Seed) == jobs[k].Coord() {
			k++
		}
		if k < len(loaded) {
			if err := e.Sink.Rewrite(loaded[:k]); err != nil {
				return nil, err
			}
		}
		for i, r := range loaded {
			known[r.ID] = r.Result
			if i < k {
				results[i] = &r
				cached++
				doneN++
				if em != nil {
					em.jobsReused.Inc()
				}
			}
		}
	}
	var pending []int
	first := map[string]int{} // content ID → its first pending index
	mu.Lock()
	next = k // the matched prefix is already on disk
	flushLocked()
	for i := k; i < len(jobs); i++ {
		id := jobs[i].ID
		if st, ok := known[id]; ok {
			cached++
			completeLocked(i, st, "reuse")
		} else if f, ok := first[id]; ok {
			twins[f] = append(twins[f], i)
		} else {
			first[id] = i
			pending = append(pending, i)
		}
	}
	mu.Unlock()

	q := newJobQueue(jobs, pending, e.GangWidth)
	run := e.jobRunner()
	workers := e.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if e.Tracer != nil {
				e.Tracer.NameThread(w, fmt.Sprintf("worker %d", w))
			}
			for {
				mu.Lock()
				if err := ctx.Err(); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("runner: sweep cancelled: %w", err)
				}
				if firstErr != nil {
					mu.Unlock()
					return
				}
				group, ok := q.next()
				if !ok {
					mu.Unlock()
					return
				}
				members := make([]Job, len(group))
				for k, i := range group {
					members[k] = jobs[i]
				}
				mu.Unlock()

				// Run the group — a single job, or the lanes of one gang —
				// supervised and under ctx, so cancellation lands mid-run,
				// not only between groups: the simulation stops at its next
				// step boundary and its partial stats are discarded here —
				// only complete results ever reach the sink.
				gang := len(members) > 1
				if em != nil {
					em.workersBusy.Add(1)
					if gang {
						em.gangGroups.Inc()
						em.gangLanes.Add(uint64(len(members)))
						em.gangWidth.Observe(uint64(len(members)))
					}
				}
				start := time.Now()
				var t0 time.Duration
				if e.Tracer != nil {
					t0 = e.Tracer.Clock()
				}
				sts, err := e.runSupervised(ctx, run, members, w, em)
				if em != nil {
					em.workersBusy.Add(-1)
					em.jobDur.Observe(uint64(time.Since(start).Microseconds()))
				}
				if e.Tracer != nil {
					state := "done"
					if err != nil {
						state = "failed"
					}
					if gang {
						e.Tracer.Span(fmt.Sprintf("gang ×%d %s", len(members), members[0].Coord()), w,
							t0, "state", state, "lanes", len(members))
					} else {
						e.Tracer.Span("job "+members[0].Coord(), w, t0, "state", state)
					}
				}

				mu.Lock()
				if err == nil {
					how := "done"
					if gang {
						how = "gang"
					}
					for k, i := range group {
						executed++
						completeLocked(i, sts[k], how)
					}
					mu.Unlock()
					continue
				}
				if err := ctx.Err(); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("runner: sweep cancelled: %w", err)
					}
					mu.Unlock()
					return
				}
				if gang {
					// A failed gang (panic, error, blown deadline) falls
					// back to independent execution: requeue the members
					// as singleton groups at the front of the queue,
					// restoring exactly the per-job retry/ledger/resume
					// semantics of a non-gang run.
					if em != nil {
						em.gangFallbacks.Inc()
					}
					if e.Tracer != nil {
						e.Tracer.Instant("gang fallback", w, "lanes", len(group))
					}
					if e.Progress != nil {
						fmt.Fprintf(e.Progress, "%-6s %d-lane gang at %s: %v; retrying as independent jobs\n",
							"gang!", len(group), jobs[group[0]].Coord(), err)
					}
					q.pushFrontSingles(group)
					mu.Unlock()
					continue
				}
				var jerr *errs.JobError
				if errors.As(err, &jerr) && e.KeepGoing {
					// Graceful degradation: ledger the failure and let the
					// sweep finish everything else.
					failLocked(group[0], jerr)
					mu.Unlock()
					continue
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("runner: %w", err)
				}
				mu.Unlock()
				return
			}
		}(w)
	}
	wg.Wait()
	if ledger != nil {
		if err := ledger.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	var records, failed []Record
	for i, r := range results {
		if r == nil {
			failed = append(failed, *failures[i])
			continue
		}
		records = append(records, *r)
	}
	rs := AssembleResultSet(name, baseSeed, records, failed)
	rs.Executed, rs.Cached = executed, cached
	if prog != nil {
		prog.Force(doneN, len(jobs), executed, cached, failedN)
	}
	if e.Progress != nil {
		fmt.Fprintf(e.Progress, "matrix %s: %d jobs, %d cached, %d executed, %d failed\n",
			name, len(jobs), rs.Cached, rs.Executed, len(rs.failed))
	}
	return rs, nil
}

// jobQueue is the pool's schedule: one slice of job groups, ordered
// by the enumeration index of each group's first member, so workers
// take work in the order the sink flushes it. A group is one job, or
// — with ganging enabled — up to gangWidth jobs sharing a front-end
// shape (sim.GangKey), formed greedily over the pending enumeration.
// Guarded by the engine's mutex.
type jobQueue struct {
	groups [][]int
}

func newJobQueue(jobs []Job, pending []int, width int) *jobQueue {
	q := &jobQueue{}
	// One open group per gang key; a full group rolls the key over to a
	// new group. Pending jobs have distinct content IDs (twins were
	// settled before queueing), so no gang runs one config twice.
	open := map[string]int{} // gang key → index of its open group
	for _, i := range pending {
		if width >= 2 {
			key := sim.GangKey(jobs[i].Config)
			if g, ok := open[key]; ok && len(q.groups[g]) < width {
				q.groups[g] = append(q.groups[g], i)
				continue
			}
			open[key] = len(q.groups)
		}
		q.groups = append(q.groups, []int{i})
	}
	return q
}

// next pops the front group.
func (q *jobQueue) next() ([]int, bool) {
	if len(q.groups) == 0 {
		return nil, false
	}
	g := q.groups[0]
	q.groups = q.groups[1:]
	return g, true
}

// pushFrontSingles requeues jobs as singleton groups at the front —
// the fallback path of a failed gang.
func (q *jobQueue) pushFrontSingles(idxs []int) {
	groups := make([][]int, 0, len(idxs)+len(q.groups))
	for _, i := range idxs {
		groups = append(groups, []int{i})
	}
	q.groups = append(groups, q.groups...)
}
