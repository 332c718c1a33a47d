package sweepd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"banshee/internal/obs"
	"banshee/internal/runner"
)

// Options configures a Daemon. Zero values get sensible defaults.
type Options struct {
	// StateDir is the daemon's durable root (required): specs, sinks,
	// ledgers, and done markers all live under it.
	StateDir string
	// Parallelism bounds each sweep's worker pool (0 = GOMAXPROCS).
	Parallelism int
	// MaxActive bounds concurrently running sweeps (0 = 2); further
	// submissions queue in submission order.
	MaxActive int
	// MaxQueued bounds sweeps waiting for a run slot beyond MaxActive
	// (0 = 16; negative = unbounded). Past the bound, Submit sheds
	// load with an *OverloadError — HTTP 429 plus Retry-After — so an
	// overloaded daemon degrades by refusing work, never by falling
	// over.
	MaxQueued int
	// MaxClientStreams bounds concurrent result/epoch/ledger streams
	// per client host (0 = 16; negative = unbounded). Past the bound
	// the stream request is shed with 429.
	MaxClientStreams int
	// LeaseTTL is the worker lease lifetime between renewals (0 = 10s).
	LeaseTTL time.Duration
	// Registry receives the daemon's service metrics and every sweep's
	// engine metrics, label-scoped per sweep (nil = a fresh registry).
	Registry *obs.Registry
	// Log, when non-nil, receives engine progress lines and daemon
	// lifecycle notes.
	Log io.Writer
}

// Daemon is the sweep service: it owns the durable store, the lease
// broker, and the set of live sweeps; Handler exposes all of it over
// HTTP. Construction resumes every unfinished sweep found on disk —
// recovery from a SIGKILL is just New on the same state dir.
type Daemon struct {
	opts   Options
	store  *Store
	broker *Broker
	reg    *obs.Registry

	baseCtx    context.Context
	baseCancel context.CancelFunc
	sem        chan struct{}
	wg         sync.WaitGroup

	maxQueued        int
	maxClientStreams int

	mu            sync.Mutex
	sweeps        map[string]*sweep
	clientStreams map[string]int // client host → open streams
	closed        bool
	// submitMu serializes Submit end to end: without it, two clients
	// resubmitting the same failed sweep could race two engines onto
	// one sink file. Submission is control-plane-rare; a single lock
	// is fine.
	submitMu sync.Mutex

	active         *obs.Gauge
	submitted      *obs.Counter
	sweepsFinished *obs.Counter
	shedSubmit     *obs.Counter
	shedStream     *obs.Counter
}

// OverloadError is the daemon shedding load: the caller should back
// off for RetryAfter and try again. Served as HTTP 429 + Retry-After.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string { return "sweepd: overloaded: " + e.Reason }

// New builds a daemon over stateDir and resumes every sweep a
// previous process left unfinished.
func New(o Options) (*Daemon, error) {
	if o.StateDir == "" {
		return nil, fmt.Errorf("sweepd: Options.StateDir is required")
	}
	store, err := NewStore(o.StateDir)
	if err != nil {
		return nil, err
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if o.MaxActive <= 0 {
		o.MaxActive = 2
	}
	maxQueued := o.MaxQueued
	if maxQueued == 0 {
		maxQueued = 16
	}
	maxStreams := o.MaxClientStreams
	if maxStreams == 0 {
		maxStreams = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		opts: o, store: store, reg: reg,
		broker:  NewBroker(o.LeaseTTL, reg),
		baseCtx: ctx, baseCancel: cancel,
		sem:       make(chan struct{}, o.MaxActive),
		maxQueued: maxQueued, maxClientStreams: maxStreams,
		sweeps:        map[string]*sweep{},
		clientStreams: map[string]int{},

		active:         reg.Gauge("sweepd_sweeps_active", "sweeps holding a run slot right now"),
		submitted:      reg.Counter("sweepd_sweeps_submitted_total", "sweep submissions accepted (idempotent resubmits included)"),
		sweepsFinished: reg.Counter("sweepd_sweeps_finished_total", "sweeps reaching a terminal state"),
		shedSubmit:     reg.Counter(`sweepd_load_shed_total{reason="submit"}`, "requests shed under load, by reason"),
		shedStream:     reg.Counter(`sweepd_load_shed_total{reason="stream"}`, "requests shed under load, by reason"),
	}
	reg.GaugeFunc("sweepd_sweeps_queued", "sweeps waiting for a run slot",
		func() float64 { return float64(d.queuedCount()) })
	if err := d.resume(); err != nil {
		cancel()
		return nil, err
	}
	return d, nil
}

// queuedCount counts live sweeps still waiting for a run slot.
func (d *Daemon) queuedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, sw := range d.sweeps {
		if sw.status().State == StateQueued {
			n++
		}
	}
	return n
}

// acquireStream admits one stream for a client host, or sheds it.
func (d *Daemon) acquireStream(host string) bool {
	if d.maxClientStreams < 0 {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clientStreams[host] >= d.maxClientStreams {
		d.shedStream.Inc()
		return false
	}
	d.clientStreams[host]++
	return true
}

func (d *Daemon) releaseStream(host string) {
	if d.maxClientStreams < 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clientStreams[host] <= 1 {
		delete(d.clientStreams, host)
	} else {
		d.clientStreams[host]--
	}
}

// Store exposes the daemon's durable store (read-only use: tests and
// the CLI inspect state paths through it).
func (d *Daemon) Store() *Store { return d.store }

// Registry exposes the daemon's metric registry.
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// Broker exposes the daemon's lease broker.
func (d *Daemon) Broker() *Broker { return d.broker }

// resume restarts every sweep on disk that never reached a terminal
// state — the crashed-daemon recovery path. Each resumes through the
// ordinary engine path: the sink loads its intact checkpoint prefix
// and only the unfinished suffix re-runs.
func (d *Daemon) resume() error {
	ids, err := d.store.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, done, err := d.store.LoadDone(id); err != nil {
			return err
		} else if done {
			continue
		}
		spec, jobs, err := d.loadResumable(id)
		if err != nil {
			// A sweep dir with no readable spec (crash between mkdir and
			// spec commit), or one whose spec no longer resolves to its
			// ID (written by an older build), is unrecoverable but
			// harmless: skip it.
			if d.opts.Log != nil {
				fmt.Fprintf(d.opts.Log, "sweepd: skipping unrecoverable sweep %s: %v\n", id, err)
			}
			continue
		}
		if d.opts.Log != nil {
			fmt.Fprintf(d.opts.Log, "sweepd: resuming sweep %s (%s, %d jobs)\n", id, spec.Name, len(jobs))
		}
		d.start(id, spec, jobs)
	}
	return nil
}

// loadResumable loads sweep id's stored spec and checks that it still
// resolves to id.
func (d *Daemon) loadResumable(id string) (Spec, []runner.Job, error) {
	spec, err := d.store.LoadSpec(id)
	if err != nil {
		return Spec{}, nil, err
	}
	jobs, err := spec.Resolve()
	if err != nil {
		return Spec{}, nil, err
	}
	if got := SweepID(spec.Name, jobs); got != id {
		return Spec{}, nil, fmt.Errorf("stored spec resolves to sweep %s", got)
	}
	return spec, jobs, nil
}

// start registers and launches one sweep goroutine. Caller must not
// hold d.mu; the sweep must already be persisted (spec on disk).
func (d *Daemon) start(id string, spec Spec, jobs []runner.Job) *sweep {
	reg := d.reg.With("sweep", id)
	ctx, cancel := context.WithCancel(d.baseCtx)
	sw := &sweep{
		id: id, spec: spec, jobs: jobs,
		runCtx: ctx, cancel: cancel,
		finished: make(chan struct{}),
		cDone:    reg.Counter(`banshee_jobs_total{state="done"}`, "jobs by final state"),
		cReused:  reg.Counter(`banshee_jobs_total{state="reused"}`, "jobs by final state"),
		cFailed:  reg.Counter(`banshee_jobs_total{state="failed"}`, "jobs by final state"),
	}
	sw.baseDone = sw.cDone.Value()
	sw.baseReused = sw.cReused.Value()
	sw.baseFailed = sw.cFailed.Value()

	d.mu.Lock()
	d.sweeps[id] = sw
	d.mu.Unlock()
	d.wg.Add(1)
	go d.run(sw)
	return sw
}

// Submit accepts a sweep spec, returning its (content-derived) status.
// Submission is idempotent: the same spec always maps to the same
// sweep ID, so a resubmit of a live sweep just reports it, a resubmit
// of a completed sweep returns its terminal status, and a resubmit of
// a failed or cancelled sweep restarts it — resuming from its
// checkpoint, converging toward the same final bytes.
func (d *Daemon) Submit(spec Spec) (Status, error) {
	jobs, err := spec.Resolve()
	if err != nil {
		return Status{}, specError{err}
	}
	id := SweepID(spec.Name, jobs)

	d.submitMu.Lock()
	defer d.submitMu.Unlock()

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return Status{}, errClosed
	}
	if sw, live := d.sweeps[id]; live {
		st := sw.status()
		if !st.Terminal() {
			d.mu.Unlock()
			d.submitted.Inc()
			return st, nil
		}
		if st.State == StateDone {
			d.mu.Unlock()
			d.submitted.Inc()
			return st, nil
		}
		// failed/cancelled: fall through to restart.
	}
	d.mu.Unlock()

	if st, done, err := d.store.LoadDone(id); err != nil {
		return Status{}, err
	} else if done && st.State == StateDone {
		d.submitted.Inc()
		return st, nil
	} else if done {
		if err := d.store.ClearDone(id); err != nil {
			return Status{}, err
		}
	}
	// Backpressure: only genuinely NEW work is shed — the idempotent
	// paths above (live resubmit, completed sweep) always answer, so a
	// client polling its own sweep is never turned away.
	if q := d.queuedCount(); d.maxQueued >= 0 && q >= d.maxQueued {
		d.shedSubmit.Inc()
		return Status{}, &OverloadError{
			Reason:     fmt.Sprintf("submission queue full (%d sweeps queued, max %d)", q, d.maxQueued),
			RetryAfter: 2 * time.Second,
		}
	}
	if err := d.store.SaveSpec(id, spec); err != nil {
		return Status{}, err
	}
	d.submitted.Inc()
	return d.start(id, spec, jobs).status(), nil
}

// Cancel stops a live sweep. The engine abandons in-flight jobs at
// their next step boundary; the checkpoint keeps its clean prefix, so
// a later resubmit resumes rather than restarts. Cancelling a sweep
// already in a terminal state is a no-op reporting that state.
func (d *Daemon) Cancel(id string) (Status, error) {
	d.mu.Lock()
	sw, ok := d.sweeps[id]
	d.mu.Unlock()
	if !ok {
		if st, done, err := d.store.LoadDone(id); err != nil {
			return Status{}, err
		} else if done {
			return st, nil
		}
		return Status{}, errUnknownSweep(id)
	}
	if st := sw.status(); st.Terminal() {
		return st, nil
	}
	sw.cancelled.Store(true)
	sw.cancel()
	<-sw.finished
	return sw.status(), nil
}

// Status reports one sweep's state, live or from its done marker.
func (d *Daemon) Status(id string) (Status, error) {
	d.mu.Lock()
	sw, ok := d.sweeps[id]
	d.mu.Unlock()
	if ok {
		return sw.status(), nil
	}
	if st, done, err := d.store.LoadDone(id); err != nil {
		return Status{}, err
	} else if done {
		return st, nil
	}
	return Status{}, errUnknownSweep(id)
}

// List reports every sweep the daemon knows: live ones plus terminal
// ones on disk, sorted by ID.
func (d *Daemon) List() ([]Status, error) {
	ids, err := d.store.List()
	if err != nil {
		return nil, err
	}
	byID := map[string]Status{}
	for _, id := range ids {
		if st, err := d.Status(id); err == nil {
			byID[id] = st
		}
	}
	d.mu.Lock()
	for id, sw := range d.sweeps {
		if _, ok := byID[id]; !ok {
			byID[id] = sw.status()
		}
	}
	d.mu.Unlock()
	keys := make([]string, 0, len(byID))
	for id := range byID {
		keys = append(keys, id)
	}
	sort.Strings(keys)
	out := make([]Status, 0, len(keys))
	for _, id := range keys {
		out = append(out, byID[id])
	}
	return out, nil
}

// Wait blocks until sweep id reaches a terminal state (or ctx ends),
// returning that state.
func (d *Daemon) Wait(ctx context.Context, id string) (Status, error) {
	d.mu.Lock()
	sw, ok := d.sweeps[id]
	d.mu.Unlock()
	if ok {
		select {
		case <-sw.finished:
		case <-ctx.Done():
			return Status{}, ctx.Err()
		}
	}
	return d.Status(id)
}

// Close stops the daemon: running sweeps are interrupted at their next
// step boundary and left unfinished on disk (no done marker), so the
// next New on the same state dir resumes them. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	d.baseCancel()
	d.wg.Wait()
	return nil
}

// The errors the HTTP layer maps to status codes. It matches them by
// identity and type only, so no text a client controls (a sweep's
// name) can change a status.
var (
	errNoSweep = errors.New("sweepd: no sweep")            // 404
	errClosed  = errors.New("sweepd: daemon is shut down") // 503
)

// specError is a submitted spec that Resolve rejected (400).
type specError struct{ error }

func (e specError) Unwrap() error { return e.error }

func errUnknownSweep(id string) error {
	return fmt.Errorf("%w %s", errNoSweep, id)
}
