// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5). Each -run target prints a paper-style table;
// "all" runs the full suite in order. See DESIGN.md §4 for the
// experiment index and the paper-vs-measured caveats.
//
// With -out the underlying batch engine streams every simulation
// result to one JSONL file per experiment matrix in that directory, and
// -resume skips jobs whose results are already there — so a killed
// suite re-invoked with the same flags completes without re-simulating
// finished jobs.
//
// An interrupted suite (SIGINT/SIGTERM) cancels the run context: the
// batch engine drains its workers without writing partial results, so
// each matrix's JSONL file in -out is a clean prefix that a re-run with
// -resume completes byte-identically.
//
// Jobs run supervised: -retries/-job-timeout bound each job, and
// -keep-going completes a suite past permanently failed jobs, streaming
// them to one "<matrix>.failed.jsonl" ledger per matrix in -out and
// rendering the affected figure cells as zero-valued holes. Failed jobs
// are absent from the success stream, so a -resume re-run retries them.
// The "fault:<spec>:<inner>" workload names inject deterministic
// source-level chaos for testing that machinery.
//
// With -gang N the batch engine executes up to N gang-eligible jobs of
// a matrix (same workload stream and scheme kind, differing only by
// seed or back-end knobs — see DESIGN.md §12) as one lockstep gang;
// every output file stays byte-identical to an ungrouped run.
//
// With -remote ADDR each matrix is submitted to a running sweepd
// daemon instead of simulated locally: the daemon executes the jobs
// (sharded across its attached workers), streams back records
// byte-identical to a local run, and the tables render from them as
// usual. Submission is idempotent — a ^C only detaches this client;
// the sweeps continue server-side, observable with sweepctl, and a
// re-run with the same flags reattaches and completes from whatever
// already finished.
//
// The -cpuprofile/-memprofile flags write pprof profiles of the suite
// (same contract as bansheesim's): `go tool pprof experiments cpu.prof`.
//
// Exit codes: 0 clean, 1 on error or when any job permanently failed
// (the ledger paths are printed), 130 when interrupted.
//
// Usage:
//
//	experiments -run fig4
//	experiments -run all -instr 2000000
//	experiments -run fig5 -workloads pagerank,lbm,mcf
//	experiments -run all -out results/ -resume -v
//	experiments -run fig8 -gang 8 -cpuprofile cpu.prof
//	experiments -run table6 -workloads "pagerank,fault:panic=1:lbm" -keep-going -retries 3 -out results/
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"banshee/internal/exp"
	_ "banshee/internal/fault" // registers the "fault:" chaos workload kind
	"banshee/internal/obs"
	"banshee/internal/runner"
)

// main defers to run so profile-flushing defers survive the non-zero
// exit paths (os.Exit skips deferred functions).
func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		target     = flag.String("run", "all", "experiment: table1|fig4|fig5|fig6|fig7|fig8|fig9|table5|table6|largepage|batman|all")
		instr      = flag.Uint64("instr", 0, "instructions per core (0 = default)")
		seed       = flag.Uint64("seed", 42, "base seed")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: the paper's 16)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		intensity  = flag.Float64("intensity", 0, "memory-intensity multiplier (0 = default)")
		out        = flag.String("out", "", "directory for streaming JSONL results (one file per matrix)")
		resume     = flag.Bool("resume", false, "skip jobs whose results are already in -out")
		keepGoing  = flag.Bool("keep-going", false, "complete sweeps past failed jobs (ledger + partial figures) instead of aborting")
		retries    = flag.Int("retries", 1, "attempts per job (retries with backoff after the first)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job-attempt deadline (0 = none)")
		gang       = flag.Int("gang", 0, "run up to N gang-eligible jobs as one lockstep gang (0 = off)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		remote     = flag.String("remote", "", "submit matrices to the sweepd daemon at this address instead of running locally")
		metrics    = flag.String("metrics", "", "serve live sweep telemetry over HTTP on this address (e.g. :6060): /metrics, /debug/vars, /debug/pprof")
		traceFile  = flag.String("tracefile", "", "write the suite's sweep timeline as Chrome trace_event JSON to this file")
		progEvery  = flag.Duration("progress-every", 0, "with -v, replace per-job lines with one summary line per interval (0 = per-job lines)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// An interrupt cancels every in-flight simulation through the
	// options context; exp.run surfaces the cancellation as an
	// exp.ErrCancelled panic which is recovered below into a clean,
	// resumable exit (130) instead of a stack trace. Any other error
	// the experiment layer surfaces exits 1 with the message alone —
	// only non-error panics (bugs) keep their stack trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := exp.Options{Ctx: ctx, Instr: *instr, Seed: *seed, Intensity: *intensity,
		Out: *out, Resume: *resume, Remote: *remote,
		Engine: runner.Engine{KeepGoing: *keepGoing, JobTimeout: *jobTimeout, GangWidth: *gang,
			Retry:         runner.RetryPolicy{MaxAttempts: *retries, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second},
			ProgressEvery: *progEvery}}
	if *resume && *out == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -out")
		return 1
	}
	if *metrics != "" {
		reg := obs.NewRegistry()
		srv, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: serving telemetry on http://%s/metrics\n", srv.Addr())
		o.Engine.Metrics = reg
	}
	if *traceFile != "" {
		o.Engine.Tracer = obs.NewTracer()
		defer func() {
			if err := o.Engine.Tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// Permanently failed jobs, collected across matrices so the suite
	// can finish its figures before reporting the holes.
	type failedMatrix struct {
		name, ledger string
		count        int
	}
	var failedMatrices []failedMatrix
	o.OnFailures = func(matrix string, failed []runner.Record, ledger string) {
		failedMatrices = append(failedMatrices, failedMatrix{matrix, ledger, len(failed)})
	}

	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				panic(r)
			}
			if errors.Is(err, exp.ErrCancelled) {
				stop()
				switch {
				case *remote != "":
					fmt.Fprintf(os.Stderr, "experiments: interrupted; submitted sweeps continue server-side on %s — watch them with `sweepctl -addr %s list` / `sweepctl stream`, or re-run with the same flags to reattach\n", *remote, *remote)
				case *out != "":
					fmt.Fprintln(os.Stderr, "experiments: interrupted; results so far are a clean prefix — re-run with -resume to complete")
				default:
					fmt.Fprintln(os.Stderr, "experiments: interrupted")
				}
				code = 130
				return
			}
			fmt.Fprintln(os.Stderr, "experiments:", err)
			code = 1
			return
		}
		if len(failedMatrices) > 0 {
			for _, fm := range failedMatrices {
				if fm.ledger != "" {
					fmt.Fprintf(os.Stderr, "experiments: %d job(s) failed in matrix %s; ledger: %s\n", fm.count, fm.name, fm.ledger)
				} else {
					fmt.Fprintf(os.Stderr, "experiments: %d job(s) failed in matrix %s\n", fm.count, fm.name)
				}
			}
			fmt.Fprintln(os.Stderr, "experiments: affected figure cells are zero-valued holes; re-run with -resume to retry failed jobs")
			code = 1
		}
	}()
	if *verbose {
		o.Engine.Progress = os.Stderr
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
	}

	targets := map[string]func(exp.Options){
		"table1": func(exp.Options) { fmt.Println(exp.Table1()) },
		"fig4": func(o exp.Options) {
			r := exp.Fig4(o)
			fmt.Println(r.Table())
			gains := r.BansheeGains()
			for _, base := range r.Schemes { // the table's order, not map order
				if gain, ok := gains[base]; ok {
					fmt.Printf("Banshee vs %-10s %+.1f%%\n", base+":", 100*gain)
				}
			}
			fmt.Println()
		},
		"fig5": func(o exp.Options) {
			r := exp.Traffic(o)
			fmt.Println(r.InPkgTable())
			avg := r.AvgInPkg()
			fmt.Printf("average in-package traffic (B/instr):")
			for _, s := range r.Schemes {
				fmt.Printf("  %s=%.2f", s, avg[s])
			}
			fmt.Println()
			fmt.Println()
		},
		"fig6": func(o exp.Options) {
			r := exp.Traffic(o)
			fmt.Println(r.OffPkgTable())
		},
		"traffic": func(o exp.Options) {
			r := exp.Traffic(o)
			fmt.Println(r.InPkgTable())
			avg := r.AvgInPkg()
			fmt.Printf("average in-package traffic (B/instr):")
			for _, s := range r.Schemes {
				fmt.Printf("  %s=%.2f", s, avg[s])
			}
			fmt.Println()
			fmt.Println()
			fmt.Println(r.OffPkgTable())
			avgOff := r.AvgOffPkg()
			fmt.Printf("average off-package traffic (B/instr):")
			for _, s := range r.Schemes {
				fmt.Printf("  %s=%.2f", s, avgOff[s])
			}
			fmt.Println()
		},
		"fig7": func(o exp.Options) { fmt.Println(exp.Fig7(o).Table()) },
		"fig8": func(o exp.Options) {
			for _, t := range exp.Fig8(o).Tables() {
				fmt.Println(t)
			}
		},
		"fig9": func(o exp.Options) { fmt.Println(exp.Fig9(o).Table()) },
		"table5": func(o exp.Options) {
			r := exp.Table5(o)
			fmt.Println(r.Table())
			fmt.Printf("mean tag-buffer flush interval: %.2f ms (scaled run)\n\n", r.FlushIntervalMs)
		},
		"table6":    func(o exp.Options) { fmt.Println(exp.Table6(o).Table()) },
		"largepage": func(o exp.Options) { fmt.Println(exp.LargePages(o).Table()) },
		"batman":    func(o exp.Options) { fmt.Println(exp.Batman(o).Table()) },
	}

	order := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table5", "table6", "largepage", "batman"}
	if *target == "all" {
		for _, name := range order {
			if name == "fig6" {
				continue // folded into fig5's matrix below
			}
			fmt.Printf("=== %s ===\n", name)
			if name == "fig5" {
				// One simulation matrix serves both traffic figures.
				r := exp.Traffic(o)
				fmt.Println(r.InPkgTable())
				fmt.Println("=== fig6 ===")
				fmt.Println(r.OffPkgTable())
				continue
			}
			targets[name](o)
		}
		return 0
	}
	f, ok := targets[*target]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown target %q (valid: %s, all)\n", *target, strings.Join(order, ", "))
		return 1
	}
	f(o)
	return 0
}
