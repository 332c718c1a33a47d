package runner

import "banshee/internal/obs"

// engineMetrics is the engine's instrument panel, built once per Run
// against the engine's registry. All updates happen under the run's
// mutex or on a single worker, but the metrics themselves are atomic —
// the exposition endpoint reads them concurrently.
type engineMetrics struct {
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	jobsReused    *obs.Counter
	attempts      *obs.Counter
	retries       *obs.Counter
	workersBusy   *obs.Gauge
	flushLag      *obs.Gauge
	flushed       *obs.Counter
	gangGroups    *obs.Counter
	gangLanes     *obs.Counter
	gangFallbacks *obs.Counter
	gangWidth     *obs.Histogram
	jobDur        *obs.Histogram
	attemptDur    *obs.Histogram
}

// newEngineMetrics registers the engine metric families on r (nil r =
// nil panel; every update site is nil-guarded so the disabled path
// stays free).
func newEngineMetrics(r *obs.Registry) *engineMetrics {
	if r == nil {
		return nil
	}
	return &engineMetrics{
		jobsDone:      r.Counter(`banshee_jobs_total{state="done"}`, "jobs by final state"),
		jobsFailed:    r.Counter(`banshee_jobs_total{state="failed"}`, "jobs by final state"),
		jobsReused:    r.Counter(`banshee_jobs_total{state="reused"}`, "jobs by final state"),
		attempts:      r.Counter("banshee_job_attempts_total", "job attempts started (first tries and retries)"),
		retries:       r.Counter("banshee_job_retries_total", "job attempts past the first"),
		workersBusy:   r.Gauge("banshee_workers_busy", "workers executing a job or gang right now"),
		flushLag:      r.Gauge("banshee_flush_lag_jobs", "completed jobs waiting behind the in-order checkpoint flush frontier"),
		flushed:       r.Counter("banshee_checkpoint_flushed_total", "records streamed to the checkpoint sink"),
		gangGroups:    r.Counter("banshee_gang_groups_total", "gang groups executed"),
		gangLanes:     r.Counter("banshee_gang_lanes_total", "jobs executed as gang lanes"),
		gangFallbacks: r.Counter("banshee_gang_fallbacks_total", "failed gangs requeued as independent jobs"),
		gangWidth:     r.Histogram("banshee_gang_width_lanes", "lanes per executed gang group"),
		jobDur:        r.Histogram("banshee_job_duration_us", "wall time per executed job or gang group, retries included"),
		attemptDur:    r.Histogram("banshee_attempt_duration_us", "wall time per job attempt"),
	}
}
