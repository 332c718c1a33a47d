// Command sweepd runs sweeps as a long-running system instead of a CLI
// run: a daemon that accepts declarative sweep specs over HTTP/JSON,
// executes their content-keyed jobs on a local pool — optionally
// sharded across attached worker processes — and streams checkpoint
// results to any number of clients. All state is durable under -state:
// a SIGKILL'd daemon restarted on the same directory re-leases its
// unfinished sweeps and converges to output byte-identical to an
// uninterrupted local run.
//
// Usage:
//
//	sweepd serve  -listen :8080 -state /var/lib/banshee
//	sweepd worker -join daemon-host:8080 -parallel 8
//
// `serve` hosts the API (POST /v1/sweeps, GET /v1/sweeps/{id}/status,
// /results, /epochs, /ledger, POST /v1/sweeps/{id}/cancel) plus the
// worker lease protocol (/v1/workers/*) and live telemetry on /metrics.
// `worker` attaches to a running daemon and pulls job leases until
// interrupted; killing a worker only costs its leased jobs, which the
// daemon re-runs locally after their leases expire.
//
// Exit codes follow the bansheesim convention (0 clean, 1 error,
// 124 deadline, 130 interrupted), specialised for a service: both
// subcommands exit 0 on SIGINT/SIGTERM — for a daemon, an interrupt is
// the shutdown protocol, not a failure: running sweeps checkpoint and
// stay resumable — and 1 on any startup or serve error. 124 and 130
// are not used; nothing in a daemon distinguishes a deadline from an
// orderly stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	_ "banshee/internal/fault" // registers the "fault:" chaos workload kind
	"banshee/internal/obs"
	"banshee/internal/sweepd"
)

func main() {
	os.Exit(run())
}

func usage() int {
	fmt.Fprintln(os.Stderr, `usage:
  sweepd serve  -listen :8080 -state DIR [-parallel N] [-max-active N] [-max-queued N] [-max-streams N] [-lease-ttl D] [-quiet]
  sweepd worker -join ADDR [-parallel N] [-name NAME] [-quiet]`)
	return 1
}

func run() int {
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "serve":
		return serve(os.Args[2:])
	case "worker":
		return worker(os.Args[2:])
	case "-h", "-help", "--help":
		usage()
		return 0
	default:
		fmt.Fprintf(os.Stderr, "sweepd: unknown subcommand %q\n", os.Args[1])
		return usage()
	}
}

func serve(args []string) int {
	fs := flag.NewFlagSet("sweepd serve", flag.ExitOnError)
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address for the API and /metrics")
		state      = fs.String("state", "", "durable state directory (required); sweeps resume from it across restarts")
		parallel   = fs.Int("parallel", 0, "worker-pool size per sweep (0 = GOMAXPROCS)")
		maxActive  = fs.Int("max-active", 2, "sweeps running concurrently; further submissions queue")
		maxQueued  = fs.Int("max-queued", 16, "sweeps queued beyond max-active before submissions are shed with 429 (-1 = unbounded)")
		maxStreams = fs.Int("max-streams", 16, "concurrent result streams per client host before streams are shed with 429 (-1 = unbounded)")
		leaseTTL   = fs.Duration("lease-ttl", 10*time.Second, "worker lease lifetime between renewals")
		drain      = fs.Duration("drain", 5*time.Second, "HTTP shutdown drain deadline on SIGINT/SIGTERM")
		quiet      = fs.Bool("quiet", false, "suppress per-job progress lines")
	)
	fs.Parse(args)
	if *state == "" {
		fmt.Fprintln(os.Stderr, "sweepd: -state is required")
		return 1
	}

	log := os.Stderr
	opts := sweepd.Options{
		StateDir:         *state,
		Parallelism:      *parallel,
		MaxActive:        *maxActive,
		MaxQueued:        *maxQueued,
		MaxClientStreams: *maxStreams,
		LeaseTTL:         *leaseTTL,
	}
	if !*quiet {
		opts.Log = log
	}
	d, err := sweepd.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}

	srv, err := obs.ServeHandler(*listen, d.Handler())
	if err != nil {
		d.Close()
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}
	fmt.Fprintf(log, "sweepd: serving on http://%s (state %s)\n", srv.Addr(), *state)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(log, "sweepd: shutting down; running sweeps checkpoint and resume on next start")

	// Shutdown order: stop accepting/streaming first (bounded drain),
	// then interrupt the engines — their checkpoints stay clean prefixes
	// either way, but closing the listener first means no client
	// observes a half-shut daemon accepting new sweeps.
	code := 0
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd: http shutdown:", err)
		code = 1
	}
	if err := d.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		code = 1
	}
	return code
}

func worker(args []string) int {
	fs := flag.NewFlagSet("sweepd worker", flag.ExitOnError)
	var (
		join     = fs.String("join", "", "daemon address to attach to, host:port or URL (required)")
		parallel = fs.Int("parallel", 0, "concurrent job leases (0 = GOMAXPROCS)")
		name     = fs.String("name", "", "worker name for the daemon's liveness window (default host-pid)")
		quiet    = fs.Bool("quiet", false, "suppress per-lease log lines")
	)
	fs.Parse(args)
	if *join == "" {
		fmt.Fprintln(os.Stderr, "sweepd: -join is required")
		return 1
	}
	c, err := sweepd.Dial(*join)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		return 1
	}
	wk := &sweepd.Worker{Client: c, Name: *name, Parallel: *parallel}
	if !*quiet {
		wk.Log = os.Stderr
	}
	slots := *parallel
	if slots <= 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "sweepd: worker attached to %s (%d slots)\n", c.Base(), slots)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	wk.Run(ctx)
	// An interrupt is the worker's shutdown protocol: leased jobs are
	// abandoned and re-run by the daemon after lease expiry. Exit 0.
	fmt.Fprintln(os.Stderr, "sweepd: worker detached")
	return 0
}
