// Package exp implements the paper's evaluation section: one runner per
// table and figure (Fig. 4-9, Tables 1, 5, 6, and the §5.4 extensions).
// Each runner declares its simulation matrix (workloads × schemes ×
// config points), hands it to the generic batch engine in
// internal/runner, and aggregates the returned results into the same
// metrics the paper plots. cmd/experiments drives the runners; with
// Options.Out set they stream results to JSONL and resume interrupted
// sweeps.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"banshee/internal/runner"
	"banshee/internal/sim"
	"banshee/internal/sweepd"
	"banshee/internal/trace"
)

// Options controls an experiment run.
type Options struct {
	// Ctx, when non-nil, bounds every simulation of the experiment:
	// cancelling it drains the batch engine's worker pool and aborts
	// the experiment, leaving any JSONL output a clean resumable
	// prefix. Nil means context.Background().
	Ctx context.Context
	// Instr is the per-core instruction budget (0 = sim default).
	Instr uint64
	// Seed is the base simulation seed.
	Seed uint64
	// Engine is the batch engine template every matrix runs on: pool,
	// progress, supervision, ganging and observability. Leave Sink and
	// FailedOut unset; run sets them per matrix from Out. Under
	// Engine.KeepGoing each matrix completes past permanently failed
	// jobs instead of aborting the experiment: failures stream to a
	// sibling "<matrix>.failed.jsonl" ledger in Out, the aggregators
	// render zero-valued holes at the failed coordinates, and
	// OnFailures (if set) is told about them.
	Engine runner.Engine
	// Workloads overrides the workload list (nil = the paper's 16).
	Workloads []string
	// Intensity multiplies every workload's memory intensity (1 = default).
	Intensity float64
	// Out, when set, is a directory receiving one JSONL result file per
	// experiment matrix as jobs complete.
	Out string
	// Resume skips jobs whose results are already in Out (matched by
	// content key, so edited sweeps re-simulate).
	Resume bool
	// OnFailures, when non-nil with Engine.KeepGoing, receives each
	// matrix's permanently failed jobs after it completes (skipped for
	// clean matrices). ledger is the ledger file path, or "" without Out.
	OnFailures func(matrix string, failed []runner.Record, ledger string)
	// Remote, when set, submits every matrix to the sweepd daemon at
	// this address ("host:port" or URL) instead of executing locally:
	// the daemon runs the jobs (sharded across its attached workers),
	// streams back the checkpoint records — byte-identical to a local
	// run — and the aggregators consume the assembled results as usual.
	// Engine's execution policy (Retry, JobTimeout, KeepGoing,
	// GangWidth) rides along in the sweep spec; local-run machinery
	// (Out, Resume and the rest of Engine) is unused, since the daemon
	// owns durable state and telemetry for its sweeps.
	Remote string
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return trace.Names()
}

// sweepWorkloads is the representative subset used by the parameter
// sweeps (Fig. 8/9, Tables 5/6): it spans the behavioral classes of the
// full suite — skewed graph reuse (pagerank, graph500), streaming (lbm,
// libquantum), pointer chasing (mcf, omnetpp), and a mixed workload —
// at a fraction of the simulation cost. DESIGN.md §4 records this
// reduction.
func (o Options) sweepWorkloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return []string{"pagerank", "graph500", "lbm", "mcf", "omnetpp", "libquantum", "soplex", "mix1"}
}

func (o Options) config() sim.Config {
	cfg := sim.DefaultConfig()
	if o.Instr > 0 {
		cfg.InstrPerCore = o.Instr
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	} else {
		cfg.Seed = 42
	}
	if o.Intensity > 0 {
		cfg.Intensity = o.Intensity
	}
	return cfg
}

// matrix declares one experiment's simulation matrix over the options'
// base config.
func (o Options) matrix(name string, workloads, schemes []string, points ...runner.Point) runner.Matrix {
	return runner.Matrix{
		Name:      name,
		Base:      o.config(),
		Workloads: workloads,
		Schemes:   schemes,
		Points:    points,
	}
}

// point declares one config-override point: a label plus the overlay
// that format and args print, a partial sim.Config JSON object. Floats
// print with %v, the shortest text that parses back to the same value.
func point(label, format string, args ...any) runner.Point {
	return runner.Point{Label: label, Set: json.RawMessage(fmt.Sprintf(format, args...))}
}

// ErrCancelled is what run panics with (wrapped with the matrix name)
// when the options context is cancelled mid-experiment — callers that
// install a context recover it to distinguish interruption from bugs.
var ErrCancelled = errors.New("experiment cancelled")

// run executes a matrix on the batch engine, streaming to o.Out when
// set. Errors panic: experiment configs are code, not input, so a
// failure is a bug worth surfacing immediately — except cancellation
// of o.Ctx, which panics with ErrCancelled for the caller to recover,
// and per-job failures under o.Engine.KeepGoing, which the sweep outlives
// (the ledger and OnFailures report them).
func run(o Options, m runner.Matrix) *runner.ResultSet {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Remote != "" {
		return runRemote(ctx, o, m)
	}
	eng := o.Engine
	ledger := ""
	if o.Out != "" {
		sink, err := runner.OpenSink(filepath.Join(o.Out, m.Name+".jsonl"), o.Resume)
		if err != nil {
			panic(fmt.Errorf("exp: matrix %s: %w", m.Name, err))
		}
		defer sink.Close()
		eng.Sink = sink
		if eng.KeepGoing {
			ledger = filepath.Join(o.Out, m.Name+".failed.jsonl")
			eng.FailedOut = ledger
		}
	}
	rs, err := eng.Run(ctx, m)
	if err != nil {
		if ctx.Err() != nil {
			panic(fmt.Errorf("%w: matrix %s: %v", ErrCancelled, m.Name, err))
		}
		panic(fmt.Errorf("exp: matrix %s failed: %w", m.Name, err))
	}
	if failed := rs.Failed(); len(failed) > 0 && o.OnFailures != nil {
		o.OnFailures(m.Name, failed, ledger)
	}
	return rs
}

// runRemote executes a matrix by submitting it to the sweepd daemon at
// o.Remote and streaming the results back — the records are
// byte-identical to a local run's, so the aggregators can't tell the
// difference. Cancelling o.Ctx abandons only the client side: the
// sweep keeps running server-side and a re-run with the same options
// reattaches to it (submission is idempotent).
func runRemote(ctx context.Context, o Options, m runner.Matrix) *runner.ResultSet {
	c, err := sweepd.Dial(o.Remote)
	if err != nil {
		panic(fmt.Errorf("exp: matrix %s: %w", m.Name, err))
	}
	e := o.Engine
	rs, err := c.RunMatrix(ctx, m, sweepd.RunOptions{
		GangWidth:    e.GangWidth,
		Retries:      e.Retry.MaxAttempts,
		JobTimeoutMs: e.JobTimeout.Milliseconds(),
		KeepGoing:    e.KeepGoing,
	})
	if err != nil {
		if ctx.Err() != nil {
			panic(fmt.Errorf("%w: matrix %s: %v", ErrCancelled, m.Name, err))
		}
		panic(fmt.Errorf("exp: matrix %s failed remotely: %w", m.Name, err))
	}
	if failed := rs.Failed(); len(failed) > 0 && o.OnFailures != nil {
		o.OnFailures(m.Name, failed, "")
	}
	return rs
}
