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
	"banshee/internal/stats"
)

// Engine executes matrices on a work-stealing worker pool. Workers own
// per-workload job queues: the first job on a workload builds (and
// caches) its trace/graph substrate, and every later job on that queue
// hits the warm cache, so the expensive warm-up happens once per
// workload instead of once per job. An idle worker first claims an
// unowned workload, and only when none remain steals from the back of
// the longest remaining queue — keeping stolen work on the substrate
// it just warmed.
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
	// sees every job and ganging stays on. Fault-injection seam: chaos
	// harnesses wrap the default to inject panics, errors, and stalls
	// around real simulations.
	JobRunner JobRunner
	// Dispatch, when non-nil, is offered every singleton job attempt
	// before it executes locally — the job-leasing seam a sweep service
	// uses to shard work across attached worker processes. A declined
	// offer (ok=false: no worker attached, none picked the job up in
	// time, or its lease expired) runs the attempt locally instead, so
	// a fleet losing its last worker degrades to a local sweep rather
	// than stalling. An accepted offer's result (or error) is the
	// attempt's result: remote attempts retry, ledger, and count
	// exactly like local ones. Gang groups never dispatch — lockstep
	// lanes need the shared in-process front end.
	Dispatch Dispatcher

	// GangWidth, when ≥ 2, lets the engine execute up to that many
	// adjacent gang-eligible jobs as one group: lanes of one lockstep
	// sim.Gang. Jobs sharing a scheme kind and front-end shape — same
	// workload stream, differing only by seed or back-end knobs —
	// amortize one shared front end across their lanes. Results are
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
// also simulate once. Results stream to the sink in matrix enumeration
// order, so a killed run's file is a clean prefix and a resumed run
// completes it byte-identically.
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
	return e.RunJobs(ctx, m.Name, m.baseSeed(), jobs)
}

// RunJobs executes an already-enumerated job list under the matrix
// name — the entry point for callers that ship resolved jobs across a
// process boundary (a sweep service accepting wire specs) instead of
// re-enumerating a Matrix. Semantics are exactly Run's: the jobs'
// order is the enumeration order the sink contract is defined over,
// so the same list always converges to the same bytes.
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
		byID     = map[string]stats.Sim{}      // known results, content-keyed
		failedID = map[string]*errs.JobError{} // permanent failures, content-keyed
		inflight = map[string]chan struct{}{}  // IDs being simulated now
		results  = make([]*Record, len(jobs))
		failures = make([]*Record, len(jobs)) // ledger records (KeepGoing)
		onDisk   = make([]bool, len(jobs))    // already in the sink file
		next     = 0                          // flush frontier (enumeration order)
		doneN    = 0                          // filled slots (successes + failures)
		failedN  = 0                          // permanently failed slots
		executed = 0                          // jobs simulated
		cached   = 0                          // jobs served from the sink or deduplicated
		ledger   *Sink                        // FailedOut, opened on the first failure
	)
	if e.Sink != nil {
		for _, r := range e.Sink.Loaded() {
			byID[r.ID] = r.Result
		}
		if d := e.Sink.Dropped(); d > 0 && e.Progress != nil {
			fmt.Fprintf(e.Progress, "sink: dropped %d corrupt checkpoint record(s) on resume\n", d)
		}
	}

	// flushLocked streams the completed prefix to the sink in order. A
	// permanently failed job occupies its slot without a record: the
	// frontier steps over it so later successes still reach the disk,
	// and the resulting gap is what makes the job retryable-on-resume.
	flushLocked := func() {
		for next < len(jobs) && (results[next] != nil || failures[next] != nil) {
			if results[next] != nil && !onDisk[next] && e.Sink != nil && firstErr == nil {
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
	completeLocked := func(i int, st stats.Sim, how string) {
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
	}
	// failLocked records job i's permanent failure (KeepGoing mode):
	// ledger line, failure slot for the flush frontier, progress note.
	failLocked := func(i int, jerr *errs.JobError) {
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
	}

	// The file must stay an enumeration-order prefix of this matrix, so
	// only the leading records that line up with the jobs count as done
	// on disk; anything after the first mismatch (an edited sweep, or a
	// file from a different matrix) is pruned. Pruned-but-still-valid
	// results are not lost — they were indexed into byID above, so their
	// jobs complete by content-key reuse and are re-appended in order
	// rather than re-simulated.
	var pending []int
	if e.Sink != nil {
		loaded := e.Sink.Loaded()
		k := 0
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
		for i := 0; i < k; i++ {
			r := loaded[i]
			results[i] = &r
			onDisk[i] = true
			cached++
			doneN++
			if em != nil {
				em.jobsReused.Inc()
			}
		}
		for i := k; i < len(jobs); i++ {
			pending = append(pending, i)
		}
		mu.Lock()
		flushLocked()
		mu.Unlock()
	} else {
		for i := range jobs {
			pending = append(pending, i)
		}
	}

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
			own := ""
			for {
				mu.Lock()
				if err := ctx.Err(); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("runner: sweep cancelled: %w", err)
				}
				if firstErr != nil {
					mu.Unlock()
					return
				}
				group, wl, ok := q.nextLocked(own)
				if !ok {
					mu.Unlock()
					return
				}
				own = wl
				// Resolve each member against known results first: reuse
				// an identical completed config instead of simulating it
				// twice, share a permanent failure (a content key that
				// already failed permanently fails this job too — the
				// injected faults are keyed by the same ID, so an
				// identical config would only fail identically), or wait
				// out an in-flight twin. What remains actually runs.
				var todo []int
				for _, i := range group {
					id := jobs[i].ID
					resolved := false
					for {
						if st, ok := byID[id]; ok {
							cached++
							completeLocked(i, st, "reuse")
							resolved = true
							break
						}
						if jerr, ok := failedID[id]; ok {
							shared := &errs.JobError{Coord: jobs[i].Coord(), ID: id,
								Attempts: jerr.Attempts, Panicked: jerr.Panicked, Err: jerr.Err}
							failLocked(i, shared)
							resolved = true
							break
						}
						ch, busy := inflight[id]
						if !busy {
							break
						}
						mu.Unlock()
						<-ch
						mu.Lock()
						if firstErr != nil {
							mu.Unlock()
							return
						}
					}
					if !resolved {
						todo = append(todo, i)
					}
				}
				if len(todo) == 0 {
					mu.Unlock()
					continue
				}
				// Run what remains as one group — a single job, or the
				// lanes of one gang — supervised and under ctx, so
				// cancellation lands mid-run, not only between groups: the
				// simulation stops at its next step boundary and its
				// partial stats are discarded here — only complete results
				// ever reach the sink.
				members := make([]Job, len(todo))
				for k, i := range todo {
					inflight[jobs[i].ID] = make(chan struct{})
					members[k] = jobs[i]
				}
				mu.Unlock()

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
				// Release waiters; they wake into mu, so they see whatever
				// this block settles before it unlocks.
				for _, i := range todo {
					close(inflight[jobs[i].ID])
					delete(inflight, jobs[i].ID)
				}
				if err == nil {
					how := "done"
					if gang {
						how = "gang"
					}
					for k, i := range todo {
						byID[jobs[i].ID] = sts[k]
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
					// as singleton groups at the front of this workload's
					// queue, restoring exactly the per-job
					// retry/ledger/resume semantics of a non-gang run.
					if em != nil {
						em.gangFallbacks.Inc()
					}
					if e.Tracer != nil {
						e.Tracer.Instant("gang fallback", w, "lanes", len(todo))
					}
					if e.Progress != nil {
						fmt.Fprintf(e.Progress, "%-6s %d-lane gang at %s: %v; retrying as independent jobs\n",
							"gang!", len(todo), jobs[todo[0]].Coord(), err)
					}
					q.pushFrontSingles(wl, todo)
					mu.Unlock()
					continue
				}
				var jerr *errs.JobError
				if errors.As(err, &jerr) && e.KeepGoing {
					// Graceful degradation: ledger the failure and let the
					// sweep finish everything else.
					failedID[jobs[todo[0]].ID] = jerr
					failLocked(todo[0], jerr)
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

// jobQueue is the pool's scheduling state: per-workload FIFO queues of
// job groups in first-appearance order. A group is one job, or — with
// ganging enabled — up to gangWidth gang-eligible jobs sharing a
// scheme kind and front-end shape, formed greedily over the pending
// enumeration so groupmates stay enumeration-adjacent and the flush
// frontier advances smoothly. Guarded by the engine's mutex.
type jobQueue struct {
	jobs    []Job
	queues  map[string][][]int
	order   []string
	claimed map[string]bool
}

func newJobQueue(jobs []Job, pending []int, width int) *jobQueue {
	q := &jobQueue{jobs: jobs, queues: map[string][][]int{}, claimed: map[string]bool{}}
	// One open group per gang key; a full group, or a duplicate
	// content ID (which must resolve through the inflight machinery,
	// never sit twice in one gang), rolls the key over to a new group.
	type openGroup struct {
		w   string
		idx int // index into q.queues[w]
		ids map[string]bool
	}
	open := map[string]*openGroup{}
	for _, i := range pending {
		w := jobs[i].Workload
		if _, seen := q.queues[w]; !seen {
			q.order = append(q.order, w)
			q.queues[w] = nil
		}
		if width >= 2 {
			if key, ok := gangKey(jobs[i]); ok {
				id := jobs[i].ID
				if g := open[key]; g != nil && len(q.queues[g.w][g.idx]) < width && !g.ids[id] {
					q.queues[g.w][g.idx] = append(q.queues[g.w][g.idx], i)
					g.ids[id] = true
					continue
				}
				q.queues[w] = append(q.queues[w], []int{i})
				open[key] = &openGroup{w: w, idx: len(q.queues[w]) - 1, ids: map[string]bool{id: true}}
				continue
			}
		}
		q.queues[w] = append(q.queues[w], []int{i})
	}
	return q
}

// nextLocked hands the caller its next job group: first from its own
// workload's queue, then by claiming an unowned workload, and finally
// by stealing from the back of the longest remaining queue.
func (q *jobQueue) nextLocked(own string) ([]int, string, bool) {
	if own != "" && len(q.queues[own]) > 0 {
		return q.popFront(own), own, true
	}
	for _, w := range q.order {
		if !q.claimed[w] && len(q.queues[w]) > 0 {
			q.claimed[w] = true
			return q.popFront(w), w, true
		}
	}
	best := ""
	for _, w := range q.order {
		if len(q.queues[w]) > len(q.queues[best]) {
			best = w
		}
	}
	if best == "" {
		return nil, "", false
	}
	return q.popBack(best), best, true
}

// pushFrontSingles requeues jobs as singleton groups at the front of
// workload w's queue — the fallback path of a failed gang.
func (q *jobQueue) pushFrontSingles(w string, idxs []int) {
	groups := make([][]int, 0, len(idxs)+len(q.queues[w]))
	for _, i := range idxs {
		groups = append(groups, []int{i})
	}
	q.queues[w] = append(groups, q.queues[w]...)
}

func (q *jobQueue) popFront(w string) []int {
	groups := q.queues[w]
	q.queues[w] = groups[1:]
	return groups[0]
}

func (q *jobQueue) popBack(w string) []int {
	groups := q.queues[w]
	q.queues[w] = groups[:len(groups)-1]
	return groups[len(groups)-1]
}
