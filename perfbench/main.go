// Command perfbench is the repository's benchmark. It drives the
// simulator through three workloads, reports end-to-end metrics in host
// time (CPU time and wall clock on the machine running it), and checks
// that every simulated output is correct. With -trace 1 it instead reports
// per-layer metrics, measured from outside the program: it calls each
// internal module's public functions directly and replays the streams
// it captured at each layer boundary during a real run.
//
//	bash perfbench/run.sh --workload solo --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//   - solo: one caller running back-to-back banshee.Run of Banshee on
//     pagerank (closed loop, direct stepping path).
//   - fig4: one banshee.RunBatch of a reduced Fig. 4 matrix at a time
//     (closed loop, gang and direct paths, JSONL sink).
//   - service: an open loop of tiny sweeps against an in-process sweepd
//     daemon with one attached worker.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it print every metric under its name with
// its unit, the output digests, and where the full record (host
// fingerprint plus every raw sample) was written. The simulated model
// has no hardware reference in this repository, so no accuracy figure
// is reported: the model is unvalidated, and correctness here means
// "identical to the program's own reference outputs".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// endToEnd lists the metrics BENCHMARK.json bounds, in its order. Every
// workload reports all of them. Times are CPU time (see cpuTime) per
// unit of work the user waits for: one run on solo, one matrix on fig4;
// on service, whose sweeps overlap, the window's CPU time per sweep.
// Wall-clock times are printed and recorded beside them but not
// bounded: on a virtual machine whose CPUs are shared with other
// guests, they swing with the neighbours' load.
var endToEnd = []named{
	{"setup_s", "s"}, {"minstr_per_cpu_s", "Minstr/s"}, {"cpu_ms_p50", "ms"}, {"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json's order. A layer that does no work on a workload
// reports 0 there (runner and sweepd on solo, for instance).
var perLayer = []named{
	{"workload.events", "count"}, {"workload.ns_per_event", "ns"}, {"workload.substrate_build_s", "s"},
	{"vm.lookups", "count"}, {"vm.tlb_hit_ratio", "1"}, {"vm.ns_per_lookup", "ns"},
	{"cache.l1.accesses", "count"}, {"cache.l1.hit_ratio", "1"}, {"cache.l2.hit_ratio", "1"},
	{"cache.l3.hit_ratio", "1"}, {"cache.ns_per_access", "ns"},
	{"scheme.accesses", "count"}, {"scheme.dc_hit_ratio", "1"}, {"scheme.ops_per_access", "1"},
	{"scheme.ns_per_access", "ns"}, {"scheme.remaps", "count"}, {"scheme.tagbuf_flushes", "count"},
	{"dram.ops", "count"}, {"dram.row_hit_ratio", "1"}, {"dram.ns_per_op", "ns"},
	{"dram.inpkg_bytes_per_instr", "B"}, {"dram.offpkg_bytes_per_instr", "B"},
	{"sim.events", "count"}, {"sim.self_ns_per_event", "ns"}, {"sim.self_frac", "1"},
	{"runner.jobs", "count"}, {"runner.gang_lane_frac", "1"}, {"runner.gang_fallbacks", "count"},
	{"runner.attempts_per_job", "1"}, {"runner.job_overhead_ms", "ms"}, {"runner.checkpoint_flushes", "count"},
	{"runner.worker_busy_frac", "1"},
	{"sweepd.lease_ms_p50", "ms"}, {"sweepd.lease_ms_p99", "ms"}, {"sweepd.report_ms_p50", "ms"},
	{"sweepd.report_ms_p99", "ms"}, {"sweepd.stream_ms_p50", "ms"}, {"sweepd.remote_frac", "1"},
	{"sweepd.lease_expiries", "count"}, {"sweepd.offers_declined", "count"}, {"sweepd.shed", "count"},
	{"sweepd.net_retries", "count"},
	{"loadgen.lag_ms_p99", "ms"}, {"trace.overhead_frac", "1"}, {"replay.mismatches", "count"},
}

// named is a metric name with its unit.
type named struct{ name, unit string }

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string // per-run scratch directory inside the checkout
}

// workloads maps each workload name to its timed and traced runs.
var workloads = map[string]struct {
	timed, traced func(o options, rec *record) error
}{
	"solo":    {soloTimed, soloTraced},
	"fig4":    {fig4Timed, fig4Traced},
	"service": {serviceTimed, serviceTraced},
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: solo, fig4 or service")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input of the run is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics instead of end-to-end ones")
	flag.Parse()
	o.trace = traceFlag == 1

	// run.sh starts the program in the checkout's root, so the records
	// and the tree fingerprint both refer to the working directory.
	rec, err := run(o, filepath.Join(".bench_build", "perfbench"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printRecord(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one timed or traced run and returns its record, with
// the full record written under dir.
func run(o options, dir string) (*record, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want solo, fig4 or service)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(dir, "run-"+o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	o.scratch = scratch

	rec := newRecord(o)
	fn := w.timed
	if o.trace {
		fn = w.traced
	}
	if err := fn(o, rec); err != nil {
		return nil, err
	}
	if _, ok := rec.EndToEnd["peak_rss_mb"]; !ok {
		rec.e2e("peak_rss_mb", peakRSSMB(), "MB")
	}
	if rec.Attempted > 0 {
		rec.e2e("fail_frac", float64(rec.Failed)/float64(rec.Attempted), "1")
	}
	rec.Path = filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, b2i(o.trace)))
	buf, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(rec.Path, buf, 0o644)
}

// printRecord prints every metric with its unit, the digests, and the
// record path, then the result line.
func printRecord(w io.Writer, rec *record) error {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%v trace=%v  host: %s, %s, GOMAXPROCS=%d, nproc=%d, tree %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Host.CPU, rec.Host.GoVersion,
		rec.Host.GOMAXPROCS, rec.Host.NProc, rec.Host.Tree)
	fmt.Fprintln(w, "model: unvalidated (no hardware reference); correctness = identity with reference outputs")
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", rec.EndToEnd}, {"per-layer", rec.Layers}} {
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-10s %-28s %14s %s\n", sec.title, n, strconv.FormatFloat(sec.m[n].Value, 'g', 6, 64), sec.m[n].Unit)
		}
	}
	for _, d := range rec.Digests {
		fmt.Fprintln(w, "digest", d)
	}
	for _, e := range rec.Exceptions {
		fmt.Fprintln(w, "replay exception:", e)
	}
	for _, m := range rec.Mismatches {
		fmt.Fprintln(w, "MISMATCH:", m)
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintln(w, "record", rec.Path)

	want, from := endToEnd, rec.EndToEnd
	if rec.Trace {
		want, from = perLayer, rec.Layers
	}
	out := map[string]metric{}
	for _, n := range want {
		m, ok := from[n.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n.name)
		}
		if m.Unit != n.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", n.name, m.Unit, n.unit)
		}
		out[n.name] = m
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rec.Mismatches) == 0, rec.Attempted, rec.Failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
