package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"banshee"
	"banshee/internal/sweepd"
)

// service: an open loop submitting tiny sweeps at a fixed rate to an
// in-process sweepd daemon (Parallelism 1, temporary state dir) with
// one attached worker holding one lease slot. Jobs are so small that
// the simulation layers drop out and the runner and sweepd set every
// number: lease round trips, the fsync'd sink, HTTP.
const (
	svcRate         = 50.0 // sweeps submitted per second
	svcWorkload     = "mcf"
	svcCores        = 4
	svcInstrPerCore = 1000
	svcDCacheBytes  = 4 << 20              // tiny jobs touch little; a small cache keeps their set-up allocation small
	svcPoll         = 2 * time.Millisecond // status poll interval of the result fetcher; coarser grids quantize turnaround
)

var svcSchemes = []string{"NoCache", "Alloy 1", "Banshee"}

func svcBase() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = svcCores
	cfg.InstrPerCore = svcInstrPerCore
	cfg.DCacheBytes = svcDCacheBytes
	return cfg
}

// svcMatrix is the i-th sweep of a run: its seed makes its content —
// and so its sweep ID — unique (resubmitting identical content is an
// idempotent no-op).
func svcMatrix(seed uint64, i int) banshee.Matrix {
	return banshee.Matrix{Name: fmt.Sprintf("svc-%d", i), Base: svcBase(),
		Workloads: []string{svcWorkload}, Schemes: svcSchemes, Seeds: []uint64{mix(seed, 1000+uint64(i))}}
}

// service is a running in-process daemon with its attached worker.
type service struct {
	d       *sweepd.Daemon
	srv     *http.Server
	addr    string
	stop    context.CancelFunc
	worked  chan struct{} // closed when the worker loop returns
	served  chan struct{} // closed when Serve returns
	workerT *http.Transport
	workerR *timingRT // nil on timed runs
}

// newTransport is a plain HTTP transport holding at most conns
// connections to the daemon.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 40 * time.Second,
		MaxConnsPerHost:       conns,
		MaxIdleConnsPerHost:   conns,
	}
}

// startService starts a daemon over dir, serves it on a loopback port,
// and attaches one single-slot worker (timed through a timingRT when
// traced), returning once the broker has seen the worker poll.
func startService(dir string, traced bool) (*service, error) {
	d, err := sweepd.New(sweepd.Options{StateDir: dir, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &service{d: d, srv: &http.Server{Handler: d.Handler()}, addr: ln.Addr().String(),
		worked: make(chan struct{}), served: make(chan struct{}), workerT: newTransport(2)}
	go func() {
		defer close(s.served)
		s.srv.Serve(ln)
	}()
	var rt http.RoundTripper = s.workerT
	if traced {
		s.workerR = newTimingRT(s.workerT)
		rt = s.workerR
	}
	wc, err := banshee.DialWith(s.addr, banshee.SweepClientOptions{Transport: rt})
	if err != nil {
		s.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	wk := &sweepd.Worker{Client: wc, Name: "perfbench-worker", Parallel: 1, LeaseWait: 5 * time.Second}
	go func() {
		defer close(s.worked)
		wk.Run(ctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for d.Broker().Workers() == 0 {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("worker did not attach to the daemon within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// close stops the worker, the server, and the daemon, waiting for each.
func (s *service) close() error {
	if s.stop != nil {
		s.stop()
		<-s.worked
	}
	s.srv.Close()
	<-s.served
	s.workerT.CloseIdleConnections()
	return s.d.Close()
}

// serviceSetup starts the daemon and worker (and warms the workload's
// substrate) setupRepeats times, each over a fresh state directory.
func serviceSetup(o options, rec *record, traced bool) (*service, error) {
	rec.Params["rate_per_s"], rec.Params["workload"], rec.Params["schemes"] = svcRate, svcWorkload, svcSchemes
	rec.Params["instr_per_core"], rec.Params["cores"] = svcInstrPerCore, svcCores
	n := 0
	// Set-up is milliseconds here, so it repeats more often to steady
	// the median.
	return setUp(rec, 9, func() (*service, error) {
		n++
		cfg := svcBase()
		cfg.Workload = svcWorkload
		if err := timeSubstrate(rec, cfg); err != nil {
			return nil, err
		}
		return startService(filepath.Join(o.scratch, fmt.Sprintf("state-%d", n)), traced)
	}, func(s *service) { s.close() })
}

// sweepRun is one sweep of the open loop.
type sweepRun struct {
	m      banshee.Matrix
	spec   banshee.SweepSpec
	due    time.Time
	lagMs  float64 // how late the generator sent it
	subMs  float64 // due → submit accepted
	turnMs float64 // due → last result byte
	id     string
	body   []byte
	err    error
}

// loadRun is the outcome of one open-loop window.
type loadRun struct {
	runs       []sweepRun
	wall       time.Duration
	sub, fetch *timingRT // nil on timed runs
}

// runLoad submits ceil(seconds × svcRate) sweeps on schedule from one
// connection while a second connection polls each sweep's status and
// fetches its results stream.
func runLoad(o options, s *service, traced bool) (*loadRun, error) {
	n := int(math.Ceil(o.seconds * svcRate))
	lr := &loadRun{runs: make([]sweepRun, n)}
	for i := range lr.runs {
		m := svcMatrix(o.seed, i)
		spec, err := banshee.SweepSpecFromMatrix(m, banshee.SweepOptions{})
		if err != nil {
			return nil, err
		}
		lr.runs[i].m, lr.runs[i].spec = m, spec
	}
	subT, fetchT := newTransport(1), newTransport(1)
	defer subT.CloseIdleConnections()
	defer fetchT.CloseIdleConnections()
	var subRT, fetchRT http.RoundTripper = subT, fetchT
	if traced {
		lr.sub, lr.fetch = newTimingRT(subT), newTimingRT(fetchT)
		subRT, fetchRT = lr.sub, lr.fetch
	}
	// A shed (429) submission is a failed operation, not something to
	// retry past: one attempt only.
	sub, err := banshee.DialWith(s.addr, banshee.SweepClientOptions{Transport: subRT,
		Retry: banshee.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		return nil, err
	}
	fetch, err := banshee.DialWith(s.addr, banshee.SweepClientOptions{Transport: fetchRT})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), seconds(3*o.seconds)+60*time.Second)
	defer cancel()

	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range queue {
			r := &lr.runs[i]
			r.body, r.err = fetchSweep(ctx, fetch, r.id)
			r.turnMs = ms(time.Since(r.due))
		}
	}()
	start := time.Now().Add(5 * time.Millisecond)
	for i := range lr.runs {
		r := &lr.runs[i]
		r.due = start.Add(time.Duration(float64(i) / svcRate * float64(time.Second)))
		time.Sleep(time.Until(r.due))
		r.lagMs = ms(time.Since(r.due))
		st, err := sub.Submit(ctx, r.spec)
		r.subMs = ms(time.Since(r.due))
		if err != nil {
			r.err = err
			continue
		}
		r.id = st.ID
		queue <- i
	}
	close(queue)
	wg.Wait()
	lr.wall = time.Since(start)
	return lr, nil
}

// fetchSweep polls the sweep until it is terminal, then fetches its
// whole results stream.
func fetchSweep(ctx context.Context, c *banshee.SweepClient, id string) ([]byte, error) {
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.Terminal() {
			if st.State != banshee.SweepDone {
				return nil, fmt.Errorf("sweep %s ended %s: %s", id, st.State, st.Error)
			}
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(svcPoll):
		}
	}
	var buf bytes.Buffer
	_, err := c.FetchResults(ctx, id, 0, &buf)
	return buf.Bytes(), err
}

// check compares every fetched sweep with a local RunBatch of the same
// matrix, outside the timed window, and tallies failures (errors, shed
// submissions, wrong bytes) on rec.
func (lr *loadRun) check(o options, rec *record) error {
	local := filepath.Join(o.scratch, "local.jsonl")
	h := sha256.New()
	for i := range lr.runs {
		r := &lr.runs[i]
		rec.Attempted++
		if r.err != nil {
			rec.fail("sweep %d: %v", i, r.err)
			continue
		}
		if _, err := banshee.RunBatch(context.Background(), r.m, banshee.BatchOptions{Parallelism: 1, Out: local}); err != nil {
			return err
		}
		want, err := os.ReadFile(local)
		if err != nil {
			return err
		}
		if !bytes.Equal(r.body, want) {
			rec.mismatch("sweep %d (%s): streamed results %s differ from a local RunBatch's %s",
				i, r.id, digestBytes(r.body), digestBytes(want))
		}
		h.Write(r.body)
	}
	rec.Digests = append(rec.Digests, fmt.Sprintf("service seed=%d sweeps=%d results=%s",
		o.seed, len(lr.runs), hex.EncodeToString(h.Sum(nil)[:8])))
	return nil
}

// samples records the run's raw samples and returns the completed
// sweeps' turnarounds.
func (lr *loadRun) samples(rec *record) (turn []float64) {
	for _, r := range lr.runs {
		rec.sample("lag_ms", r.lagMs)
		rec.sample("submit_ms", r.subMs)
		if r.err == nil {
			rec.sample("turnaround_ms", r.turnMs)
			turn = append(turn, r.turnMs)
		}
	}
	return turn
}

func (lr *loadRun) instr() float64 {
	done := 0
	for _, r := range lr.runs {
		if r.err == nil {
			done++
		}
	}
	return float64(done * len(svcSchemes) * svcCores * svcInstrPerCore)
}

func serviceTimed(o options, rec *record) error {
	s, err := serviceSetup(o, rec, false)
	if err != nil {
		return err
	}
	c := cpuTime()
	lr, err := runLoad(o, s, false)
	cpu := cpuTime() - c
	// The high-water mark of the service itself, before the local
	// reference runs of the correctness check.
	rec.e2e("peak_rss_mb", peakRSSMB(), "MB")
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	turn := lr.samples(rec)
	if err := lr.check(o, rec); err != nil {
		return err
	}
	sub := rec.Samples["submit_ms"]
	rec.e2e("minstr_per_s", lr.instr()/1e6/lr.wall.Seconds(), "Minstr/s")
	// Sweeps overlap, so CPU time is the window's, per completed sweep.
	rec.e2e("minstr_per_cpu_s", lr.instr()/1e6/cpu.Seconds(), "Minstr/s")
	rec.e2e("cpu_ms_p50", ratio(ms(cpu), float64(len(turn))), "ms")
	rec.e2e("submit_ms_p50", quantile(sub, 0.5), "ms")
	rec.e2e("submit_ms_p99", quantile(sub, 0.99), "ms")
	rec.e2e("turnaround_ms_p50", quantile(turn, 0.5), "ms")
	rec.e2e("turnaround_ms_p99", quantile(turn, 0.99), "ms")
	rec.e2e("latency_ms_p50", quantile(turn, 0.5), "ms")
	rec.e2e("latency_ms_p90", quantile(turn, 0.9), "ms")
	rec.e2e("loadgen_lag_ms_p99", quantile(rec.Samples["lag_ms"], 0.99), "ms")
	rec.Params["sweeps"] = len(lr.runs)
	return nil
}

// traceService runs the open loop with timing transports on the client
// and the worker and reports the sweepd layer from them and the
// daemon's registry. It returns the registry snapshot, the load, and
// the worker's transport, from which the runner layer is derived.
func traceService(o options, rec *record) (map[string]float64, *loadRun, *timingRT, error) {
	s, err := serviceSetup(o, rec, true)
	if err != nil {
		return nil, nil, nil, err
	}
	lr, err := runLoad(o, s, true)
	snap := s.d.Registry().Snapshot()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	lr.samples(rec)
	if err := lr.check(o, rec); err != nil {
		return nil, nil, nil, err
	}
	rec.layer("loadgen.lag_ms_p99", quantile(rec.Samples["lag_ms"], 0.99), "ms")

	lease, report, stream := s.workerR.get("lease"), s.workerR.get("report"), lr.fetch.get("stream")
	for k, v := range map[string][]float64{"lease_ms": lease, "report_ms": report, "stream_ms": stream,
		"status_ms": lr.fetch.get("status"), "submit_rt_ms": lr.sub.get("submit")} {
		rec.Samples[k] = v
	}
	done := sumFamily(snap, "banshee_jobs_total", `state="done"`)
	rec.layer("sweepd.lease_ms_p50", quantile(lease, 0.5), "ms")
	rec.layer("sweepd.lease_ms_p99", quantile(lease, 0.99), "ms")
	rec.layer("sweepd.report_ms_p50", quantile(report, 0.5), "ms")
	rec.layer("sweepd.report_ms_p99", quantile(report, 0.99), "ms")
	rec.layer("sweepd.stream_ms_p50", quantile(stream, 0.5), "ms")
	rec.layer("sweepd.remote_frac", ratio(sumFamily(snap, "sweepd_remote_results_total", ""), done), "1")
	rec.layer("sweepd.lease_expiries", sumFamily(snap, "sweepd_lease_expiries_total", ""), "count")
	rec.layer("sweepd.offers_declined", sumFamily(snap, "sweepd_offers_declined_total", ""), "count")
	rec.layer("sweepd.shed", sumFamily(snap, "sweepd_load_shed_total", ""), "count")
	rec.layer("sweepd.net_retries", float64(sweepd.NetRetryTotal()), "count")
	return snap, lr, s.workerR, nil
}

// serviceTraced adds to traceService the runner layer and the model
// layers, replayed from traced direct sessions of one sweep's jobs.
func serviceTraced(o options, rec *record) error {
	snap, lr, workerR, err := traceService(o, rec)
	if err != nil {
		return err
	}
	rec.layer("workload.substrate_build_s", rec.Samples["substrate_build_s"][0], "s")

	// Model layers: sweep 0's jobs, traced directly. They are tiny, so
	// each is timed over more repetitions.
	var l ledger
	m := svcMatrix(o.seed, 0)
	for _, scheme := range m.Schemes {
		cfg := m.Base
		cfg.Seed = m.Seeds[0]
		st, err := traceSession(cfg, svcWorkload, scheme, 15)
		if err != nil {
			return err
		}
		if err := l.replay(st, rec); err != nil {
			return err
		}
	}
	l.emit(rec)

	// Job overhead: the engine's wall time per job beyond the worker's
	// own lease-to-report simulation time.
	jobDur := sumFamily(snap, "banshee_job_duration_us", "}_sum") / 1e3
	jobN := sumFamily(snap, "banshee_job_duration_us", "}_count")
	done := sumFamily(snap, "banshee_jobs_total", `state="done"`)
	simMs := workerR.workerSimMs()
	rec.Samples["worker_sim_ms"] = simMs
	lanes := sumFamily(snap, "banshee_gang_lanes_total", "")
	rec.layer("runner.jobs", done, "count")
	rec.layer("runner.gang_lane_frac", ratio(lanes, done), "1")
	rec.layer("runner.gang_fallbacks", sumFamily(snap, "banshee_gang_fallbacks_total", ""), "count")
	rec.layer("runner.attempts_per_job", ratio(sumFamily(snap, "banshee_job_attempts_total", "")+lanes, done), "1")
	rec.layer("runner.job_overhead_ms", ratio(jobDur, jobN)-ratio(sum(simMs), float64(len(simMs))), "ms")
	rec.layer("runner.checkpoint_flushes", sumFamily(snap, "banshee_checkpoint_flushed_total", ""), "count")
	// Run slots: MaxActive (2) sweeps, each with a one-worker pool.
	rec.layer("runner.worker_busy_frac", ratio(jobDur, 2*ms(lr.wall)), "1")
	zeroLayers(rec)
	return nil
}

// timingRT is an http.RoundTripper that times every call from request
// to response-body close, keyed by the sweepd call it carries.
type timingRT struct {
	base  http.RoundTripper
	mu    sync.Mutex
	spans map[string][]span
}

type span struct{ start, end time.Time }

func newTimingRT(base http.RoundTripper) *timingRT {
	return &timingRT{base: base, spans: map[string][]span{}}
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	call := callOf(req)
	// A lease long-poll answered 204 offered nothing: not a lease.
	if call == "lease" && resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.mu.Lock()
		t.spans[call] = append(t.spans[call], span{start, time.Now()})
		t.mu.Unlock()
	}}
	return resp, nil
}

// get returns the calls' durations in ms.
func (t *timingRT) get(call string) []float64 {
	var out []float64
	for _, s := range t.of(call) {
		out = append(out, ms(s.end.Sub(s.start)))
	}
	return out
}

func (t *timingRT) of(call string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[call]...)
}

// workerSimMs returns, per leased job, the ms from the lease grant's
// arrival to the start of its report: the worker's simulation time. A
// single-slot worker alternates lease and report, so the i-th report
// answers the i-th lease.
func (t *timingRT) workerSimMs() []float64 {
	leases, reports := t.of("lease"), t.of("report")
	var out []float64
	for i := 0; i < len(leases) && i < len(reports); i++ {
		out = append(out, ms(reports[i].start.Sub(leases[i].end)))
	}
	return out
}

// callOf names the sweepd call a request carries.
func callOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/workers/lease"):
		return "lease"
	case strings.HasSuffix(p, "/workers/result"):
		return "report"
	case strings.HasSuffix(p, "/workers/renew"):
		return "renew"
	case strings.HasSuffix(p, "/results"):
		return "stream"
	case strings.HasSuffix(p, "/status"):
		return "status"
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/sweeps"):
		return "submit"
	}
	return "other"
}

// timedBody runs done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
