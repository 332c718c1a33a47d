package main

import (
	"fmt"
	"io"
	"time"

	"banshee"
	"banshee/internal/sim"
)

// solo: one caller running back-to-back banshee.Run of Banshee on
// pagerank — a closed loop on the direct stepping path, the path every
// Banshee sweep takes because Banshee cannot run in a gang.
const (
	soloWorkload     = "pagerank"
	soloScheme       = "Banshee"
	soloInstrPerCore = 150_000
	soloSeeds        = 3 // runs rotate over this many seeds
)

func soloConfig(seed uint64) banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.InstrPerCore = soloInstrPerCore
	cfg.Seed = seed
	return cfg
}

// soloPlan is solo's set-up: the rotating seeds and the reference
// stats.Sim digest of each.
type soloPlan struct {
	seeds []uint64
	want  map[uint64]string
}

// soloSetup builds the workload substrate (its cold build time is the
// first substrate_build_s sample) and computes each seed's reference
// digest.
func soloSetup(o options, rec *record) (*soloPlan, error) {
	rec.Params["workload"], rec.Params["scheme"] = soloWorkload, soloScheme
	rec.Params["instr_per_core"], rec.Params["cores"] = soloInstrPerCore, soloConfig(0).Cores
	return setUp(rec, 3, func() (*soloPlan, error) {
		cfg := soloConfig(mix(o.seed, 0))
		cfg.Workload = soloWorkload
		if err := timeSubstrate(rec, cfg); err != nil {
			return nil, err
		}
		p := &soloPlan{want: map[uint64]string{}}
		for i := 0; i < soloSeeds; i++ {
			seed := mix(o.seed, uint64(i))
			res, err := banshee.Run(soloConfig(seed), soloWorkload, soloScheme)
			if err != nil {
				return nil, err
			}
			p.seeds = append(p.seeds, seed)
			p.want[seed] = digest(res)
		}
		return p, nil
	}, func(*soloPlan) {})
}

// soloDigestKey names a run seed's digest in the printed digests and in
// expected.
func soloDigestKey(seed uint64) string { return fmt.Sprintf("solo seed=%d stats.Sim", seed) }

// check compares one run's digest with the reference set-up computed
// for its seed and with the saved one, if any, and returns what is
// wrong ("" when nothing is).
func (p *soloPlan) check(seed uint64, got string) string {
	if got != p.want[seed] {
		return fmt.Sprintf("stats.Sim digest %s, set-up computed %s", got, p.want[seed])
	}
	if saved, ok := expected[soloDigestKey(seed)]; ok && got != saved {
		return fmt.Sprintf("stats.Sim digest %s, saved reference %s", got, saved)
	}
	return ""
}

// timeSubstrate opens a fresh source for each config's workload and
// records how long building them took.
func timeSubstrate(rec *record, cfgs ...sim.Config) error {
	t := time.Now()
	for _, cfg := range cfgs {
		src, err := openSource(cfg)
		if err != nil {
			return err
		}
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
	}
	rec.sample("substrate_build_s", time.Since(t).Seconds())
	return nil
}

func soloTimed(o options, rec *record) error {
	p, err := soloSetup(o, rec)
	if err != nil {
		return err
	}
	budget := float64(soloInstrPerCore * soloConfig(0).Cores)
	var instr, busy, cpu float64
	end := time.Now().Add(seconds(o.seconds))
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		seed := p.seeds[i%len(p.seeds)]
		// Every run starts from a collected heap, so no run pays for the
		// previous run's garbage, and has its own peak RSS.
		perRun := resetPeakRSS()
		c, t := cpuTime(), time.Now()
		res, err := banshee.Run(soloConfig(seed), soloWorkload, soloScheme)
		d, dc := time.Since(t), cpuTime()-c
		rec.Attempted++
		if err != nil {
			rec.fail("run %d (seed %d): %v", i, seed, err)
			continue
		}
		rec.sample("run_ms", ms(d))
		rec.sample("run_cpu_ms", ms(dc))
		if perRun {
			rec.sample("run_peak_rss_mb", peakRSSMB())
		}
		busy += d.Seconds()
		cpu += dc.Seconds()
		instr += budget
		if why := p.check(seed, digest(res)); why != "" {
			rec.mismatch("run %d (seed %d): %s", i, seed, why)
		}
	}
	runs := rec.Samples["run_ms"]
	rec.e2e("minstr_per_s", instr/1e6/busy, "Minstr/s")
	rec.e2e("minstr_per_cpu_s", instr/1e6/cpu, "Minstr/s")
	rec.e2e("cpu_ms_p50", median(rec.Samples["run_cpu_ms"]), "ms")
	if peaks := rec.Samples["run_peak_rss_mb"]; len(peaks) > 0 {
		rec.e2e("peak_rss_mb", median(peaks), "MB")
	}
	rec.e2e("run_ms_p50", quantile(runs, 0.5), "ms")
	rec.e2e("run_ms_p90", quantile(runs, 0.9), "ms")
	rec.e2e("latency_ms_p50", quantile(runs, 0.5), "ms")
	rec.e2e("latency_ms_p90", quantile(runs, 0.9), "ms")
	rec.Params["runs"] = len(runs)
	for _, s := range p.seeds {
		rec.Digests = append(rec.Digests, soloDigestKey(s)+"="+p.want[s])
	}
	return nil
}

// soloTraced traces one solo run through both seams, replays every
// layer, and reports the ledger. Runner and sweepd do nothing on solo.
func soloTraced(o options, rec *record) error {
	p, err := soloSetup(o, rec)
	if err != nil {
		return err
	}
	seed := p.seeds[0]
	st, err := traceSession(soloConfig(seed), soloWorkload, soloScheme, 3)
	if err != nil {
		return err
	}
	rec.Attempted = 1
	if why := p.check(seed, digest(st.res)); why != "" {
		rec.mismatch("traced run: %s", why)
	}
	var l ledger
	if err := l.replay(st, rec); err != nil {
		return err
	}
	if l.mismatches > 0 {
		rec.Failed = 1 // the one traced session failed its replay checks
	}
	l.emit(rec)
	rec.layer("workload.substrate_build_s", rec.Samples["substrate_build_s"][0], "s")
	rec.Digests = append(rec.Digests, soloDigestKey(seed)+"="+p.want[seed])
	zeroLayers(rec)
	return nil
}

// zeroLayers reports 0 for every per-layer metric the workload's layers
// did not exercise.
func zeroLayers(rec *record) {
	for _, m := range perLayer {
		if _, ok := rec.Layers[m.name]; !ok {
			rec.layer(m.name, 0, m.unit)
		}
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
