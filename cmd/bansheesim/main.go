// Command bansheesim runs one workload under one DRAM-cache scheme and
// prints the headline statistics: cycles, IPC, DRAM-cache MPKI and miss
// rate, and the in-/off-package traffic breakdown by class.
//
// The run is a cancellable session: SIGINT/SIGTERM stop it at the next
// step boundary and the statistics accumulated so far are printed
// (marked as partial) before exiting non-zero. With -epoch N a live
// MPKI/bandwidth sample is printed every N retired instructions, and
// -timeout deadlines the whole run. Exit codes distinguish the
// outcomes: 0 clean, 1 error, 124 deadline exceeded (partial stats
// printed), 130 interrupted (partial stats printed).
//
// Usage:
//
//	bansheesim -workload pagerank -scheme Banshee
//	bansheesim -workload lbm -scheme "Alloy 0.1" -instr 2000000
//	bansheesim -workload pagerank -scheme Banshee -epoch 500000
//	bansheesim -workload mix1 -scheme Banshee -cpuprofile sim.prof
//	bansheesim -workload mcf -scheme "Alloy 1" -gang 1,2,3,4
//
// The -cpuprofile/-memprofile flags write pprof profiles of the run so
// the PERFORMANCE.md methodology applies to the shipped binary, not
// only the test harness: `go tool pprof bansheesim sim.prof`.
//
// With -gang a comma-separated seed list runs as lanes of one lockstep
// gang over a shared front end (any scheme; see DESIGN.md §12); each
// lane's printed stats are byte-identical to an independent -seed
// run of that seed with WorkloadSeed pinned. A plain run is the same
// handle at width 1, so the exit codes and partial-stats reporting
// above apply to both; -epoch samples only a plain run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	_ "banshee/internal/fault" // registers the "fault:" chaos workload kind
	"banshee/internal/mem"
	"banshee/internal/obs"
	"banshee/internal/registry"
	"banshee/internal/sim"
	"banshee/internal/stats"
	wl "banshee/internal/workload"
)

// main defers to run so profile-flushing defers survive the non-zero
// exit paths (os.Exit skips deferred functions).
func main() {
	os.Exit(run())
}

func run() int {
	schemes := registry.Names()
	for i, n := range schemes {
		schemes[i] = strconv.Quote(n)
	}
	var (
		workload  = flag.String("workload", "pagerank", "workload name (see -list)")
		scheme    = flag.String("scheme", "Banshee", "scheme display name ("+strings.Join(schemes, ", ")+`; append "+BATMAN" to balance bandwidth; "Banshee 2M" needs -largepages)`)
		instr     = flag.Uint64("instr", 0, "instructions per core (0 = default)")
		cores     = flag.Int("cores", 0, "core count (0 = default 16)")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		large     = flag.Bool("largepages", false, "back all data with 2 MB pages")
		epoch     = flag.Uint64("epoch", 0, "print a live sample every N retired instructions (0 = off)")
		timeout   = flag.Duration("timeout", 0, "wall-clock deadline for the run (0 = none); partial stats print on expiry")
		gang      = flag.String("gang", "", "comma-separated seeds to run as one lockstep gang over a shared front end; per-lane stats print at the end")
		list      = flag.Bool("list", false, "list workloads and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		metrics   = flag.String("metrics", "", "serve live telemetry over HTTP on this address (e.g. :6060): /metrics, /debug/vars, /debug/pprof")
		trFile    = flag.String("tracefile", "", "write the run's timeline as Chrome trace_event JSON to this file")
		epochJSON = flag.Bool("epoch-json", false, "with -epoch, emit each sample as one JSON object per line on stdout instead of the human stderr line")
	)
	flag.Parse()

	if *epochJSON && *epoch == 0 {
		fmt.Fprintln(os.Stderr, "bansheesim: -epoch-json requires -epoch")
		return 1
	}
	if *epoch > 0 && *gang != "" {
		fmt.Fprintln(os.Stderr, "bansheesim: -epoch samples a single run; drop it or -gang")
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bansheesim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bansheesim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bansheesim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bansheesim:", err)
			}
		}()
	}

	if *list {
		for _, n := range wl.Names() {
			fmt.Println(n)
		}
		return 0
	}

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bansheesim:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bansheesim: serving telemetry on http://%s/metrics\n", srv.Addr())
	}
	var tracer *obs.Tracer
	if *trFile != "" {
		tracer = obs.NewTracer()
		tracer.NameThread(0, "session")
		defer func() {
			if err := tracer.WriteFile(*trFile); err != nil {
				fmt.Fprintln(os.Stderr, "bansheesim:", err)
			}
		}()
	}

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	cfg.LargePages = *large
	if *instr > 0 {
		cfg.InstrPerCore = *instr
	}
	if *cores > 0 {
		cfg.Cores = *cores
	} else if strings.HasPrefix(*workload, wl.FilePrefix) {
		cfg.Cores = 0 // adopt the recording's core count
	}

	// An interrupt cancels the run context: the session stops at its
	// next step boundary and returns the partial window, so a ^C still
	// reports what was measured instead of discarding the run. A
	// -timeout deadline lands the same way but exits 124, so scripts
	// can tell a stuck run from an interrupted one.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// A plain run is a width-1 gang of -seed; -gang runs one lane per
	// listed seed. Both take the same path from here on.
	seeds := []uint64{*seed}
	if *gang != "" {
		seeds = nil
		for _, s := range strings.Split(*gang, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bansheesim: -gang:", err)
				return 1
			}
			seeds = append(seeds, v)
		}
	}
	g, err := sim.NewGangSeeds(cfg, *workload, *scheme, seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bansheesim:", err)
		return 1
	}

	// Every epoch consumer — human stderr line, -epoch-json stream,
	// trace instants — and the -metrics series share the lanes' one
	// observer, at -epoch's interval (sim.DefaultEpochEvery without it).
	var onEpoch []func(int, stats.Snapshot)
	if *epoch > 0 && !*epochJSON {
		onEpoch = append(onEpoch, func(lane int, s stats.Snapshot) {
			fmt.Fprintf(os.Stderr, "[%s] %5.1f%%  MPKI %6.2f  in-pkg B/i %6.3f  off-pkg B/i %6.3f\n",
				s.Phase, 100*float64(s.Retired)/float64(g.Lane(lane).Progress().Total),
				s.Window.MPKI(), s.Window.InPkgBPI(), s.Window.OffPkgBPI())
		})
	}
	if *epochJSON {
		enc := json.NewEncoder(os.Stdout)
		onEpoch = append(onEpoch, func(_ int, s stats.Snapshot) {
			if err := enc.Encode(s.Epoch()); err != nil {
				fmt.Fprintln(os.Stderr, "bansheesim: -epoch-json:", err)
			}
		})
	}
	if tracer != nil {
		onEpoch = append(onEpoch, func(_ int, s stats.Snapshot) {
			tracer.Instant(fmt.Sprintf("epoch @%d", s.Retired), 0, "phase", s.Phase.String())
		})
	}
	fold := g.Observe(*epoch, reg, onEpoch...)

	runStart := time.Duration(0)
	if tracer != nil {
		runStart = tracer.Clock()
	}
	results, err := g.Run(ctx)
	if tracer != nil {
		state := "done"
		if err != nil {
			state = "partial"
		}
		name := fmt.Sprintf("run %s/%s", *workload, *scheme)
		if *gang != "" {
			name = fmt.Sprintf("gang ×%d %s/%s", len(seeds), *workload, *scheme)
		}
		tracer.Span(name, 0, runStart, "state", state)
	}
	// Fold exactly the stats the report below prints, so the exposed
	// totals match the CLI's own output even for a partial run.
	fold(results)
	code := 0
	switch p := g.Progress(); {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "bansheesim: deadline (%s) exceeded at %d of %d instructions (%.0f%%); stats below are partial\n",
			*timeout, p.Retired, p.Total, 100*p.Fraction())
		code = 124 // conventional timeout(1) exit
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "bansheesim: interrupted at %d of %d instructions (%.0f%%); stats below are partial\n",
			p.Retired, p.Total, 100*p.Fraction())
		code = 130 // conventional 128+SIGINT
	default:
		fmt.Fprintln(os.Stderr, "bansheesim:", err)
		return 1
	}

	// With -epoch-json, stdout is the machine-readable stream; the human
	// report moves to stderr so consumers can pipe the JSONL directly.
	out := io.Writer(os.Stdout)
	if *epochJSON {
		out = os.Stderr
	}
	for i, st := range results {
		if *gang != "" {
			fmt.Fprintf(out, "--- lane %d (seed %d) ---\n", i, seeds[i])
		}
		report(out, st, code != 0)
	}
	return code
}

func report(w io.Writer, st stats.Sim, partial bool) {
	note := ""
	if partial {
		note = "  (partial)"
	}
	fmt.Fprintf(w, "workload      %s%s\n", st.Workload, note)
	fmt.Fprintf(w, "scheme        %s\n", st.Scheme)
	fmt.Fprintf(w, "instructions  %d\n", st.Instructions)
	fmt.Fprintf(w, "cycles        %d\n", st.Cycles)
	fmt.Fprintf(w, "IPC           %.3f\n", st.IPC())
	fmt.Fprintf(w, "LLC misses    %d (evictions %d)\n", st.LLCMisses, st.LLCEvictions)
	fmt.Fprintf(w, "avg miss lat  %.0f cycles\n", st.AvgMissLat())
	fmt.Fprintf(w, "DC hit rate   %.1f%%  (MPKI %.2f)\n", 100*st.DCHitRate(), st.MPKI())
	fmt.Fprintf(w, "in-pkg  B/i   %.3f\n", st.InPkgBPI())
	for _, c := range mem.Classes() {
		if st.InPkg.Bytes[c] > 0 {
			fmt.Fprintf(w, "  %-12s%.3f\n", c, float64(st.InPkg.Bytes[c])/float64(st.Instructions))
		}
	}
	fmt.Fprintf(w, "off-pkg B/i   %.3f\n", st.OffPkgBPI())
	if st.TagBufferFlushes > 0 {
		fmt.Fprintf(w, "tag-buffer flushes %d (shootdowns %d)\n", st.TagBufferFlushes, st.TLBShootdowns)
	}
	if st.Remaps > 0 {
		fmt.Fprintf(w, "remaps        %d\n", st.Remaps)
	}
}
