package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"banshee"
	"banshee/internal/graph"
	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/sim"
)

// fig4: a closed loop running one banshee.RunBatch of a reduced Fig. 4
// at a time — the main-comparison schemes (NoCache included) on a
// hit-heavy graph kernel and a write-heavy streaming workload, two
// seeds with a pinned workload seed, so gang-safe schemes take the gang
// path and Banshee the direct path within one sweep.
const (
	fig4InstrPerCore = 50_000
	fig4ScaleDiv     = 4 // footprint and DRAM-cache capacity shrink together
	fig4GangWidth    = 4
)

func fig4Matrix(seed uint64) banshee.Matrix {
	cfg := banshee.DefaultConfig()
	cfg.InstrPerCore = fig4InstrPerCore
	cfg.Scale /= fig4ScaleDiv
	cfg.DCacheBytes /= fig4ScaleDiv
	cfg.WorkloadSeed = mix(seed, 100)
	return banshee.Matrix{Name: "fig4", Base: cfg, Workloads: []string{"tri_count_kernel", "lbm"},
		Schemes: banshee.Schemes(), Seeds: []uint64{mix(seed, 101), mix(seed, 102)}}
}

// fig4Setup builds the workload substrates (the graph kernel's CSR
// build dominates). Between repetitions the cached substrates are
// evicted, outside the timed build, so every repetition pays the cold
// set-up a fresh process pays.
func fig4Setup(o options, rec *record) (banshee.Matrix, error) {
	m := fig4Matrix(o.seed)
	rec.Params["workloads"], rec.Params["schemes"] = m.Workloads, m.Schemes
	rec.Params["seeds"], rec.Params["workload_seed"] = m.Seeds, m.Base.WorkloadSeed
	rec.Params["instr_per_core"], rec.Params["cores"] = fig4InstrPerCore, m.Base.Cores
	rec.Params["parallelism"], rec.Params["gang_width"] = runtime.GOMAXPROCS(0), fig4GangWidth
	// The builds take tens of milliseconds, so many repetitions steady
	// the median.
	return setUp(rec, 15, func() (banshee.Matrix, error) {
		var cfgs []sim.Config
		for _, w := range m.Workloads {
			cfg := m.Base
			cfg.Workload = w
			cfgs = append(cfgs, cfg)
		}
		return m, timeSubstrate(rec, cfgs...)
	}, func(banshee.Matrix) { evictSubstrates() })
}

// evictSubstrates drops every cached graph substrate: a one-entry cache
// limit plus a tiny placeholder build pushes the cached graphs out.
func evictSubstrates() {
	prev := graph.SetCacheLimit(1)
	graph.New(graph.Config{Vertices: 4096, AvgDegree: 1, Skew: 0.5, Seed: 1})
	graph.SetCacheLimit(prev)
	runtime.GC()
}

func fig4Jobs(m banshee.Matrix) (int, float64) {
	jobs := len(m.Workloads) * len(m.Schemes) * len(m.Seeds)
	return jobs, float64(jobs) * float64(m.Base.InstrPerCore) * float64(m.Base.Cores)
}

func fig4Timed(o options, rec *record) error {
	m, err := fig4Setup(o, rec)
	if err != nil {
		return err
	}
	jobs, instrPerSweep := fig4Jobs(m)
	out := filepath.Join(o.scratch, "fig4.jsonl")
	key := fmt.Sprintf("fig4 seed=%d jsonl", o.seed)
	saved, hasSaved := expected[key]
	var ref []byte
	var instr, busy, cpu float64
	end := time.Now().Add(seconds(o.seconds))
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		// Every sweep starts from a collected heap, so no sweep pays for
		// the previous one's garbage, and has its own peak RSS.
		perSweep := resetPeakRSS()
		c, t := cpuTime(), time.Now()
		rs, err := banshee.RunBatch(context.Background(), m, banshee.BatchOptions{
			Parallelism: runtime.GOMAXPROCS(0), GangWidth: fig4GangWidth, Out: out})
		d, dc := time.Since(t), cpuTime()-c
		rec.Attempted++
		if err != nil {
			rec.fail("sweep %d: %v", i, err)
			continue
		}
		rec.sample("sweep_ms", ms(d))
		rec.sample("sweep_cpu_ms", ms(dc))
		if perSweep {
			rec.sample("sweep_peak_rss_mb", peakRSSMB())
		}
		busy += d.Seconds()
		cpu += dc.Seconds()
		instr += instrPerSweep
		got, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		switch d := digestBytes(got); {
		case len(rs.Records()) != jobs:
			rec.mismatch("sweep %d: %d records, want %d", i, len(rs.Records()), jobs)
		case ref != nil && !bytes.Equal(got, ref):
			rec.mismatch("sweep %d: JSONL output %s differs from the first sweep's %s", i, d, digestBytes(ref))
		case hasSaved && d != saved:
			rec.mismatch("sweep %d: JSONL output %s, saved reference %s", i, d, saved)
		}
		if ref == nil {
			ref = got
		}
	}
	sweeps := rec.Samples["sweep_ms"]
	rec.e2e("minstr_per_s", instr/1e6/busy, "Minstr/s")
	rec.e2e("minstr_per_cpu_s", instr/1e6/cpu, "Minstr/s")
	rec.e2e("cpu_ms_p50", median(rec.Samples["sweep_cpu_ms"]), "ms")
	if peaks := rec.Samples["sweep_peak_rss_mb"]; len(peaks) > 0 {
		rec.e2e("peak_rss_mb", median(peaks), "MB")
	}
	rec.e2e("sweep_s", quantile(sweeps, 0.5)/1e3, "s")
	rec.e2e("latency_ms_p50", quantile(sweeps, 0.5), "ms")
	rec.e2e("latency_ms_p90", quantile(sweeps, 0.9), "ms")
	rec.Params["sweeps"] = len(sweeps)
	rec.Digests = append(rec.Digests, key+"="+digestBytes(ref))
	return nil
}

// fig4Traced measures the runner through the engine's own metric
// registry over tapped sweeps (the workload seam only: arming the
// scheme tap would void gang eligibility), then replays the model
// layers from traced direct sessions of every matrix cell.
func fig4Traced(o options, rec *record) error {
	m, err := fig4Setup(o, rec)
	if err != nil {
		return err
	}
	rec.layer("workload.substrate_build_s", median(rec.Samples["substrate_build_s"]), "s")

	tapped := m
	tapped.Workloads = nil
	for _, w := range m.Workloads {
		tapped.Workloads = append(tapped.Workloads, tapPrefix+w)
	}
	jobs, _ := fig4Jobs(m)
	par := runtime.GOMAXPROCS(0)
	reg := obs.NewRegistry()
	busy := reg.Gauge("banshee_workers_busy", "")
	c := &capture{}
	var wall time.Duration
	var busyNs float64
	sweeps := 0
	err = withCapture(c, false, func() error {
		end := time.Now().Add(seconds(o.seconds / 2))
		for sweeps == 0 || time.Now().Before(end) {
			sink, err := runner.OpenSink(filepath.Join(o.scratch, "fig4-traced.jsonl"), false)
			if err != nil {
				return err
			}
			eng := runner.Engine{Parallelism: par, GangWidth: fig4GangWidth, Sink: sink, Metrics: reg}
			stop := sampleGauge(busy, &busyNs)
			t := time.Now()
			rs, err := eng.Run(context.Background(), tapped)
			wall += time.Since(t)
			stop()
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			rec.Attempted++
			if len(rs.Records()) != jobs {
				rec.mismatch("traced sweep: %d records, want %d", len(rs.Records()), jobs)
			}
			sweeps++
		}
		return nil
	})
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	done := sumFamily(snap, "banshee_jobs_total", `state="done"`)
	lanes := sumFamily(snap, "banshee_gang_lanes_total", "")
	attempts := sumFamily(snap, "banshee_job_attempts_total", "")
	slotNs := float64(wall) * float64(par)
	rec.layer("runner.jobs", done, "count")
	rec.layer("runner.gang_lane_frac", ratio(lanes, done), "1")
	rec.layer("runner.gang_fallbacks", sumFamily(snap, "banshee_gang_fallbacks_total", ""), "count")
	rec.layer("runner.attempts_per_job", ratio(attempts+lanes, done), "1")
	rec.layer("runner.job_overhead_ms", ratio(slotNs-busyNs, done)/1e6, "ms")
	rec.layer("runner.checkpoint_flushes", sumFamily(snap, "banshee_checkpoint_flushed_total", ""), "count")
	rec.layer("runner.worker_busy_frac", ratio(busyNs, slotNs), "1")
	rec.layer("workload.sweep_events", ratio(float64(c.eventCount()), float64(sweeps)), "count")
	rec.Params["traced_sweeps"] = sweeps

	var l ledger
	for _, w := range m.Workloads {
		for _, s := range m.Schemes {
			cfg := m.Base
			cfg.Seed = m.Seeds[0]
			st, err := traceSession(cfg, w, s, 3)
			if err != nil {
				return err
			}
			rec.Attempted++
			before := l.mismatches
			if err := l.replay(st, rec); err != nil {
				return err
			}
			if l.mismatches > before {
				rec.Failed++
			}
		}
	}
	l.emit(rec)

	// A RunBatch never touches sweepd, so a short service loop measures
	// that layer here: every layer of the ledger is then measured on a
	// bounded workload.
	so := o
	so.seconds = min(o.seconds/4, 5)
	svc := newRecord(so)
	if _, _, _, err := traceService(so, svc); err != nil {
		return err
	}
	for name, m := range svc.Layers {
		if strings.HasPrefix(name, "sweepd.") {
			rec.Layers[name] = m
		}
	}
	rec.Attempted += svc.Attempted
	rec.Failed += svc.Failed
	rec.Mismatches = append(rec.Mismatches, svc.Mismatches...)
	rec.Errors = append(rec.Errors, svc.Errors...)
	zeroLayers(rec)
	return nil
}

// sampleGauge integrates g over time (in gauge-ns, added to *acc) until
// the returned stop function is called; stop waits for the sampler.
func sampleGauge(g *obs.Gauge, acc *float64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := time.Now()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				*acc += g.Value() * float64(time.Since(last))
				return
			case now := <-tick.C:
				*acc += g.Value() * float64(now.Sub(last))
				last = now
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// sumFamily sums a registry snapshot's series of one metric family
// whose labels contain want ("" = any).
func sumFamily(snap map[string]float64, family, want string) float64 {
	total := 0.0
	for k, v := range snap {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, want) {
			total += v
		}
	}
	return total
}
