// Package banshee is the public API of the Banshee DRAM-cache
// reproduction: a trace-driven multicore memory-system simulator that
// implements the Banshee design (Yu et al., MICRO 2017) alongside the
// baselines its evaluation compares against (Alloy Cache + BEAR, Unison
// Cache, tagless DRAM cache (TDC), software-managed HMA, and the
// NoCache / CacheOnly bounds).
//
// # Sessions
//
// The primary entry point is the Session: a stepwise simulation run
// that can be driven incrementally, observed mid-flight, and cancelled.
// Build a Config (DefaultConfig gives the paper's Table 2/3 system at
// the library's default 1/16 capacity scale), pick a workload from
// Workloads() and a scheme from Schemes(), open a Session, and drive it
// to completion under a context:
//
//	cfg := banshee.DefaultConfig()
//	sess, err := banshee.NewSession(cfg, "pagerank", "Banshee")
//	if err != nil { ... }
//	sess.OnEpoch(1_000_000, func(s banshee.Snapshot) {
//		log.Printf("%3.0f%%  MPKI %.2f", 100*sess.Progress().Fraction(), s.Window.MPKI())
//	})
//	res, err := sess.Run(ctx) // ctx cancel → partial stats + ctx.Err()
//
// Step(n) advances the run by n instructions at a time for callers that
// interleave simulation with their own work; Progress() reports
// retired/total instructions, the simulated clock, and the phase
// (warmup, measure, done); Snapshot() captures the current measurement
// window at any point. Every observation is windowed uniformly — core
// counters and scheme-internal counters (remaps, tag-buffer flushes)
// alike — and observing a run never changes what it computes: stepped,
// sampled, and one-shot runs produce bit-identical statistics.
//
// Run is the one-shot convenience over a Session for when none of that
// is needed:
//
//	res, err := banshee.Run(cfg, "pagerank", "Banshee")
//
// The returned Result carries cycles, MPKI, and the DRAM traffic
// breakdown by class used throughout the paper's figures.
//
// # Errors
//
// Failures carry typed sentinels matchable with errors.Is / errors.As
// across every layer: ErrUnknownScheme, ErrUnknownWorkload,
// ErrTraceCorrupt (a damaged .btrc recording), ErrTraceWrapped (a
// recording too short for the run consuming it), *ConfigError,
// which names the rejected configuration field, and *JobError, which
// carries a failed batch job's coordinate, attempt count, and cause.
//
// # Batch runs
//
// Sweeps beyond a single run go through the batch engine: declare a
// Matrix (workloads × schemes × config points × seeds) and hand it to
// RunBatch. Jobs execute on a worker pool in the matrix's enumeration
// order, sharing each graph substrate through a process-wide cache,
// results stream to a JSONL file as they complete, and an interrupted
// sweep resumes from that file without re-simulating finished jobs —
// job identity is a content key over the fully resolved configuration,
// so edited sweeps re-simulate while untouched jobs are served from
// disk.
// Cancelling the context drains the pool without writing partial
// results, so the JSONL file is always a clean resumable prefix.
//
// Jobs run supervised: a panicking scheme or workload fails that job
// — never the process — as a typed *JobError, transient faults retry
// with exponential backoff and deterministic jitter
// (BatchOptions.Retry), each attempt can carry a deadline
// (BatchOptions.JobTimeout), and with BatchOptions.KeepGoing a sweep
// outlives permanently failed jobs: they stream to a sibling
// *.failed.jsonl ledger, surface through BatchResult.Failed, and are
// retried automatically when the sweep is resumed.
//
// A batch is observable while it runs: BatchOptions.MetricsAddr serves
// live job/retry/gang/epoch telemetry over HTTP (Prometheus text and
// JSON /metrics, /debug/vars, pprof), BatchOptions.TraceFile records
// the sweep timeline as Chrome trace_event JSON, and
// BatchOptions.ProgressEvery condenses per-job progress lines into
// rate-limited summaries. All of it is opt-in; a plain batch pays
// nothing for the instrumentation seams.
//
//	m := banshee.Matrix{Name: "sweep", Base: banshee.DefaultConfig(),
//		Workloads: banshee.Workloads(), Schemes: banshee.Schemes()}
//	rs, err := banshee.RunBatch(ctx, m, banshee.BatchOptions{Out: "sweep.jsonl", Resume: true})
//
// # Sweep service
//
// The same batch engine runs as a long-running service: cmd/sweepd
// hosts sweeps behind an HTTP/JSON API, sharding content-keyed jobs
// across a local pool and optionally across attached worker processes
// pulling job leases. Dial a daemon and drive it with SweepClient —
// Submit/SubmitMatrix to start a sweep (idempotent: the same spec is
// the same sweep), StreamResults to follow its checkpoint JSONL with
// resume-from-offset, RunMatrix for the remote counterpart of
// RunBatch. Results are byte-identical to a local RunBatch of the same
// Matrix — a SIGKILL'd daemon restarts from its state directory and
// converges to the same bytes. JobKey and SweepID expose the content
// keys so clients can correlate streamed records, ledger entries, and
// status output without reimplementing the hash:
//
//	c, err := banshee.Dial("localhost:8080")
//	st, err := c.SubmitMatrix(ctx, m, banshee.SweepOptions{})
//	_, err = c.StreamResults(ctx, st.ID, 0, os.Stdout)
//
// # Scheme registry
//
// Scheme selection is table-driven: every design registers a kind, its
// display names, a parser, and a builder. Out-of-tree schemes join the
// same tables through RegisterScheme (and RegisterSchemeModifier for
// "+SUFFIX"-style wrappers such as BATMAN) and are then selectable by
// name everywhere — Run, Matrix.Schemes, and cmd/experiments.
//
// # Workload registry and trace capture/replay
//
// Workloads are table-driven like schemes: synthetic profiles, graph
// kernels, and recorded trace files all resolve behind the
// WorkloadSource contract, and out-of-tree sources join through
// RegisterWorkload. RecordTrace captures any workload into a durable
// .btrc trace file (internal/tracefile's chunked, checksummed, varint
// format) and "file:<path>" workload names — accepted by Run,
// Matrix.Workloads, and cmd/tracegen — replay it bit-identically:
//
//	err := banshee.RecordTrace("mcf.btrc", "mcf", banshee.RecordOptions{
//		Cores: 16, Seed: 1, EventsPerCore: 4_000_000})
//	res, err := banshee.Run(cfg, "file:mcf.btrc", "Banshee")
//
// For lower-level control (custom schemes, direct access to the tag
// buffer, FBR metadata, DRAM timing, or the VM substrate), see the
// internal packages; cmd/experiments regenerates every table and figure
// of the paper's evaluation and resumes interrupted suites via
// -out/-resume.
package banshee

import (
	"context"
	"io"
	"strings"
	"time"

	"banshee/internal/errs"
	"banshee/internal/mc"
	"banshee/internal/obs"
	"banshee/internal/registry"
	"banshee/internal/runner"
	"banshee/internal/sim"
	"banshee/internal/stats"
	"banshee/internal/sweepd"
	"banshee/internal/trace"
	"banshee/internal/workload"
)

// Config is a full simulation configuration; see sim.Config for field
// documentation. Zero values are invalid — start from DefaultConfig.
type Config = sim.Config

// Result is the set of measurements from one run.
type Result = stats.Sim

// SchemeSpec selects and tunes a DRAM-cache scheme.
type SchemeSpec = sim.SchemeSpec

// DefaultConfig returns the paper's 16-core system (Table 2) with
// Banshee's Table 3 parameters, scaled per DESIGN.md §3.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Session is a stepwise simulation run: step it n instructions at a
// time, poll Progress, take windowed Snapshots, sample an epoch time
// series with OnEpoch, or Run it to completion under a context with
// cancellation returning partial stats. See the package documentation
// for the flow and sim.Session for full method semantics.
type Session = sim.Session

// Snapshot is a windowed view of a running simulation: position
// (retired instructions, simulated clock, phase) plus a Result whose
// counters span the snapshot's window.
type Snapshot = stats.Snapshot

// Series is an ordered sequence of Snapshots — the time series an
// OnEpoch hook accumulates.
type Series = stats.Series

// Phase is a run's lifecycle phase: warmup, measure, or done.
type Phase = stats.Phase

// Run phases, in order.
const (
	PhaseWarmup  = stats.PhaseWarmup
	PhaseMeasure = stats.PhaseMeasure
	PhaseDone    = stats.PhaseDone
)

// SessionProgress reports where a run is (retired/total instructions,
// simulated clock, phase).
type SessionProgress = sim.Progress

// NewSession opens a stepwise run of the named workload under the named
// scheme. Scheme names follow the paper's labels — see Run. The session
// owns its resources (a replayed trace file holds an open file): Run to
// completion, or Close when abandoning it early.
func NewSession(cfg Config, workload, scheme string) (*Session, error) {
	return sim.NewSession(cfg, workload, scheme)
}

// GangSession is a set of simulations of the same workload stream
// advancing in lockstep as lanes over one shared front end (trace
// generation, TLB/page table, L1/L2), with exact per-lane back ends
// (L3, scheme, DRAM timing). Each lane's statistics are byte-identical
// to the same config run alone, at a fraction of the aggregate cost.
// Drive it like a Session: Step/Run/Progress, Results for the
// per-lane stats, Close when abandoning it early.
type GangSession = sim.Gang

// NewGangSession opens a lockstep gang of len(seeds) lanes: cfg
// replicated across the seeds, all replaying one shared workload
// stream. When cfg.WorkloadSeed is zero it is pinned to cfg.Seed (or
// the first seed), which is what makes the multi-seed gang share a
// stream; an independent run reproduces any lane byte-for-byte by
// setting the same Seed and WorkloadSeed.
//
// A gang of two or more lanes requires a gang-safe scheme — one that
// never flushes the shared TLBs and never stalls every core at once.
// Every built-in qualifies except Banshee, whose tag-buffer flush shoots
// down the TLBs, and HMA, whose remap epochs stall all cores; other
// schemes return an error. A single seed is a stand-alone run of any
// scheme. Prefetching (PrefetchDegree > 0) is allowed: each lane's
// prefetcher observes the shared stream's L1 misses against its own
// clock.
func NewGangSession(cfg Config, workload, scheme string, seeds []uint64) (*GangSession, error) {
	return sim.NewGangSeeds(cfg, workload, scheme, seeds)
}

// Run simulates the named workload under the named scheme to
// completion (a one-shot Session). Scheme names follow the paper's
// labels: "NoCache", "CacheOnly", "Alloy 1", "Alloy 0.1", "Unison",
// "TDC", "HMA", "Banshee", "Banshee LRU", "Banshee NoSample",
// "Banshee 2M" (which needs cfg.LargePages); append "+BATMAN" for
// bandwidth balancing (§5.4.2).
func Run(cfg Config, workload, scheme string) (Result, error) {
	return sim.Run(cfg, workload, scheme)
}

// Typed error sentinels, matchable with errors.Is through every layer's
// wrapping (see the package documentation's Errors section).
var (
	// ErrUnknownScheme: a scheme display name (or kind) no registered
	// scheme answers to.
	ErrUnknownScheme = errs.ErrUnknownScheme
	// ErrUnknownWorkload: a workload name no registered kind claims.
	ErrUnknownWorkload = errs.ErrUnknownWorkload
	// ErrTraceWrapped: a recorded trace ran out of events mid-use,
	// failing the run that read past its end.
	ErrTraceWrapped = errs.ErrTraceWrapped
	// ErrTraceCorrupt: a .btrc recording failed a structural or
	// checksum validation.
	ErrTraceCorrupt = errs.ErrTraceCorrupt
	// ErrDiskFull: a durable write (checkpoint sink, sweep marker) hit
	// an out-of-space condition. The state on disk is an intact prefix,
	// not corruption — free space and re-run/resubmit to resume.
	ErrDiskFull = errs.ErrDiskFull
)

// ConfigError reports an invalid configuration field; retrieve it with
// errors.As to learn which field was rejected and why.
type ConfigError = errs.ConfigError

// JobError reports one batch job's permanent failure after supervision
// gave up on it: sweep coordinate, content ID, attempt count, whether
// it panicked, and the underlying cause. Retrieve with errors.As from
// a fail-fast RunBatch error, or inspect BatchResult.Failed records.
type JobError = errs.JobError

// Speedup returns how much faster a ran than base (the paper's Fig. 4
// normalization when base is the NoCache run).
func Speedup(a, base Result) float64 { return stats.Speedup(&a, &base) }

// Workloads returns the evaluation's 16 workload names (§5.1.2).
func Workloads() []string { return trace.Names() }

// GraphWorkloads returns the graph-analytics subset (§5.4.1).
func GraphWorkloads() []string { return trace.GraphNames() }

// Schemes returns the scheme names of the paper's main comparison.
func Schemes() []string { return registry.Comparison() }

// RegisteredSchemes returns every display name the registry currently
// answers to, including registered out-of-tree schemes.
func RegisteredSchemes() []string { return registry.Names() }

// ParseScheme resolves a display name into a tunable SchemeSpec.
func ParseScheme(name string) (SchemeSpec, error) { return sim.ParseScheme(name) }

// CacheScheme is the memory-controller contract a DRAM-cache design
// implements; see the mc package for Request/Result semantics.
type CacheScheme = mc.Scheme

// SchemeDef describes a registrable scheme: a unique kind, the display
// names it answers to, a name parser, and a builder.
type SchemeDef = registry.Scheme

// SchemeEnv is the simulation context handed to scheme builders.
type SchemeEnv = registry.Env

// SchemeModifier is a registrable "+SUFFIX" wrapper over built schemes.
type SchemeModifier = registry.Modifier

// RegisterScheme adds an out-of-tree scheme to the registry, making it
// selectable by display name in Run, Matrix.Schemes, and
// cmd/experiments. It panics on duplicate kinds or incomplete
// definitions; register at init time.
func RegisterScheme(def SchemeDef) { registry.Register(def) }

// RegisterSchemeModifier adds a "+SUFFIX" wrapper (like the built-in
// "+BATMAN") applicable to any registered scheme.
func RegisterSchemeModifier(m SchemeModifier) { registry.RegisterModifier(m) }

// WorkloadSource is a replayable multi-core reference stream — the
// contract the simulator consumes for every workload kind.
type WorkloadSource = workload.Source

// WorkloadDef describes a registrable workload kind: a unique name
// plus a resolver from workload names to sources.
type WorkloadDef = workload.Def

// WorkloadConfig carries the run parameters a workload source is
// built with (cores, seed, footprint scale, intensity).
type WorkloadConfig = workload.Config

// RegisterWorkload adds an out-of-tree workload kind to the registry,
// making its names selectable everywhere a workload name is accepted —
// Run, Matrix.Workloads, and cmd/tracegen. It panics on duplicate
// kinds or incomplete definitions; register at init time.
func RegisterWorkload(def WorkloadDef) { workload.Register(def) }

// RegisteredWorkloads returns every enumerable workload name the
// registry currently answers to (recorded traces, being file paths,
// are resolvable but not enumerable).
func RegisteredWorkloads() []string { return workload.Names() }

// RecordOptions parameterizes RecordTrace. Zero values take the
// library defaults noted per field.
type RecordOptions struct {
	Cores         int     // per-core streams to record (0 = 16)
	Seed          uint64  // generator seed
	EventsPerCore uint64  // events recorded per core (0 = 1,000,000)
	Scale         float64 // footprint scale factor (0 = the default 1/16)
	Intensity     float64 // MemRatio multiplier (0 = 1.0)
}

// RecordTrace captures the named workload into a .btrc trace file at
// path. Recording EventsPerCore ≥ the run's InstrPerCore guarantees a
// later replay never runs out, because every event retires at least one
// instruction. The file replays via the "file:<path>" workload name or
// OpenTrace.
func RecordTrace(path, workloadName string, o RecordOptions) error {
	if o.Cores == 0 {
		o.Cores = 16
	}
	if o.EventsPerCore == 0 {
		o.EventsPerCore = 1_000_000
	}
	if o.Scale == 0 {
		o.Scale = sim.ScaleFactor
	}
	if o.Intensity == 0 {
		o.Intensity = 1.0
	}
	return workload.Record(path, workloadName, workload.Config{
		Cores: o.Cores, Seed: o.Seed, Scale: o.Scale, Intensity: o.Intensity,
	}, o.EventsPerCore)
}

// OpenTrace opens a recorded .btrc trace file as a replayable workload
// source. The source also implements io.Closer; close it when done
// (runs through "file:<path>" workload names close theirs
// automatically).
func OpenTrace(path string) (WorkloadSource, error) {
	return workload.Open(workload.FilePrefix+path, workload.Config{})
}

// Matrix is a declarative batch of simulations: the cross product of
// Workloads × Schemes × Points × Seeds over a base config.
type Matrix = runner.Matrix

// MatrixPoint is one setting of a Matrix's config-override axis: a
// label plus Set, a partial Config JSON object overlaid onto each job.
type MatrixPoint = runner.Point

// BatchResult indexes a completed batch; BatchRecord is one stored job.
type (
	BatchResult = runner.ResultSet
	BatchRecord = runner.Record
)

// RetryPolicy bounds how a supervised batch job is retried:
// MaxAttempts total attempts with exponential backoff from BaseDelay
// capped at MaxDelay, jittered deterministically per job. The zero
// value means a single attempt.
type RetryPolicy = runner.RetryPolicy

// BatchOptions controls RunBatch.
type BatchOptions struct {
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives one line per completed job and a
	// final summary.
	Progress io.Writer
	// Out is a JSONL file path results stream to ("" = in-memory only).
	Out string
	// Resume skips jobs whose results are already in Out; the finished
	// file is byte-identical to an uninterrupted run's. Jobs that
	// failed in a previous run are absent from Out and so are retried.
	Resume bool
	// Retry bounds per-job retries (zero value = one attempt). Every
	// job always runs under panic isolation: a panicking scheme or
	// workload fails that job, never the process.
	Retry RetryPolicy
	// JobTimeout, when positive, deadlines each attempt; a blown
	// deadline is a retryable failure wrapping context.DeadlineExceeded.
	JobTimeout time.Duration
	// KeepGoing completes the sweep past permanently failed jobs:
	// failures stream to the FailedOut ledger and are reported by
	// BatchResult.Failed instead of aborting the run.
	KeepGoing bool
	// FailedOut overrides the failure-ledger path. Empty derives it
	// from Out ("sweep.jsonl" → "sweep.failed.jsonl"); only used with
	// KeepGoing, and the file exists only when failures occurred.
	FailedOut string
	// GangWidth, when ≥ 2, executes up to that many gang-eligible jobs
	// sharing a front-end shape (same workload stream — differing only
	// by seed with WorkloadSeed pinned, or by back-end knobs) as one
	// lockstep GangSession. Results, checkpoint files, and failure
	// handling are byte-identical to independent execution; a failed
	// gang automatically retries its jobs independently. 0 disables.
	GangWidth int

	// MetricsAddr, when non-empty ("host:port", ":6060"), serves live
	// sweep telemetry over HTTP for the duration of the batch:
	// Prometheus text and JSON on /metrics, JSON on /debug/vars, and
	// net/http/pprof on /debug/pprof. The series cover job states,
	// attempts/retries, worker occupancy, gang shape, checkpoint flush
	// lag, and the per-epoch simulation time series; counters sum
	// consistently with the batch's emitted results. Empty disables all
	// metric collection (the default costs nothing).
	MetricsAddr string
	// TraceFile, when non-empty, records the sweep timeline (workers ×
	// jobs × attempts × gangs) and writes it to this path as Chrome
	// trace_event JSON when the batch ends — openable in
	// chrome://tracing or Perfetto.
	TraceFile string
	// ProgressEvery, when positive with Progress set, replaces per-job
	// progress lines with one rate-limited sweep summary line per
	// interval (position, throughput, ETA).
	ProgressEvery time.Duration
}

// RunBatch executes a matrix of simulations on the batch engine with
// checkpoint/resume and per-job supervision. Cancelling ctx drains the
// worker pool without writing partial results — the JSONL file keeps a
// clean resumable prefix — and returns an error matching ctx.Err().
// Job failures are retried per o.Retry; a permanent failure aborts the
// run with a *JobError unless o.KeepGoing, which finishes the
// remaining jobs, streams failures to the ledger, and leaves the
// success stream byte-identical to a run in which those jobs never
// enumerated ahead of it. See the package documentation for the sweep
// flow.
func RunBatch(ctx context.Context, m Matrix, o BatchOptions) (rs *BatchResult, err error) {
	eng := runner.Engine{Parallelism: o.Parallelism, Progress: o.Progress,
		Retry: o.Retry, JobTimeout: o.JobTimeout, KeepGoing: o.KeepGoing,
		GangWidth: o.GangWidth, ProgressEvery: o.ProgressEvery}
	if o.MetricsAddr != "" {
		reg := obs.NewRegistry()
		srv, serr := obs.Serve(o.MetricsAddr, reg)
		if serr != nil {
			return nil, serr
		}
		// Drain the exposition endpoint when the batch ends and surface
		// its close error instead of abandoning the listener goroutine.
		defer func() {
			if cerr := srv.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		eng.Metrics = reg
	}
	if o.TraceFile != "" {
		eng.Tracer = obs.NewTracer()
	}
	if o.Out != "" {
		sink, err := runner.OpenSink(o.Out, o.Resume)
		if err != nil {
			return nil, err
		}
		defer sink.Close()
		eng.Sink = sink
	}
	if o.KeepGoing {
		eng.FailedOut = failedOutPath(o)
	}
	rs, err = eng.Run(ctx, m)
	if eng.Tracer != nil {
		if werr := eng.Tracer.WriteFile(o.TraceFile); werr != nil && err == nil {
			err = werr
		}
	}
	return rs, err
}

// BatchJob is one fully resolved simulation of a batch: the sweep
// coordinate (workload, scheme, point label, seed), the resolved
// config, and the content-derived job ID the checkpoint machinery
// keys on. Matrix.Jobs enumerates them in sink order.
type BatchJob = runner.Job

// JobKey returns the content key a fully resolved configuration gets
// as its batch-job ID: a short hex digest over every field of cfg.
// Two jobs share a key exactly when their resolved configs are equal,
// which is what lets streamed records, ledger entries, resumed sinks,
// and sweep status be correlated without positional bookkeeping.
func JobKey(cfg Config) string { return runner.JobKey(cfg) }

// SweepID derives the content ID a sweep service assigns to a job
// list resolved under the given matrix name — the same identity
// SweepClient.Submit reports, computable offline from Matrix.Jobs.
func SweepID(name string, jobs []BatchJob) string { return sweepd.SweepID(name, jobs) }

// SweepClient talks to a sweepd daemon (cmd/sweepd) over HTTP/JSON:
// Submit/SubmitMatrix start sweeps, Status/List/Cancel/Wait manage
// them, StreamResults/StreamEpochs follow their JSONL streams with
// resume-from-offset, and RunMatrix is the remote counterpart of
// RunBatch, returning an assembled BatchResult.
type SweepClient = sweepd.Client

// SweepSpec is the wire form of a sweep: a Matrix, whose points are
// JSON overlays, plus execution options.
type SweepSpec = sweepd.Spec

// SweepOptions is a sweep's execution policy (retries, timeouts, gang
// width, epoch sampling). Policy is not content: it never changes the
// output bytes and is excluded from the sweep ID.
type SweepOptions = sweepd.RunOptions

// SweepStatus reports one sweep's identity, state, and job progress.
type SweepStatus = sweepd.Status

// Sweep lifecycle states, as reported by SweepStatus.State.
const (
	SweepQueued    = sweepd.StateQueued
	SweepRunning   = sweepd.StateRunning
	SweepDone      = sweepd.StateDone
	SweepFailed    = sweepd.StateFailed
	SweepCancelled = sweepd.StateCancelled
)

// SweepClientOptions tunes a SweepClient's transport: per-phase
// network timeouts, a per-call deadline, and the retry policy every
// unary call rides (idempotent by construction, so retried submissions
// and reports are safe). The zero value means defaults.
type SweepClientOptions = sweepd.ClientOptions

// Dial returns a client for the sweepd daemon at addr ("host:port" or
// a full http:// URL) with default timeouts and retry policy. No
// connection is made until the first call.
func Dial(addr string) (*SweepClient, error) { return sweepd.Dial(addr) }

// DialWith is Dial with explicit transport options.
func DialWith(addr string, o SweepClientOptions) (*SweepClient, error) {
	return sweepd.DialWith(addr, o)
}

// IsOverloaded reports whether err is a daemon load-shed response
// (HTTP 429): the daemon is healthy but at its submission-queue or
// stream cap. The client's retry policy already honors the attached
// Retry-After; a true return after retries means sustained overload.
func IsOverloaded(err error) bool { return sweepd.IsOverloaded(err) }

// SweepSpecFromMatrix wraps a locally declared Matrix as a SweepSpec
// after checking that it enumerates.
func SweepSpecFromMatrix(m Matrix, o SweepOptions) (SweepSpec, error) {
	return sweepd.SpecFromMatrix(m, o)
}

// failedOutPath derives the failure-ledger path from the options.
func failedOutPath(o BatchOptions) string {
	if o.FailedOut != "" {
		return o.FailedOut
	}
	if o.Out == "" {
		return ""
	}
	return strings.TrimSuffix(o.Out, ".jsonl") + ".failed.jsonl"
}
