// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (§5), plus whole-simulation, gang-sweep and trace-file
// throughput. Per-layer costs on real streams are perfbench's job
// (perfbench/README.md); allocation gates live in zeroalloc_test.go and
// allocbudget_test.go.
//
// The experiment benchmarks run reduced-size simulations per iteration
// and report the paper's metric via b.ReportMetric (speedup-x, B/i,
// miss-%), so `go test -bench=.` regenerates the *shape* of every
// result quickly; cmd/experiments runs the full-size versions.
package banshee_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"banshee"
	"banshee/internal/mem"
	"banshee/internal/trace"
	"banshee/internal/tracefile"
)

// benchConfig is the reduced-size system used by experiment benchmarks.
func benchConfig() banshee.Config {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 8
	cfg.InstrPerCore = 400_000
	cfg.Seed = 42
	return cfg
}

func mustRun(b *testing.B, cfg banshee.Config, workload, scheme string) banshee.Result {
	b.Helper()
	res, err := banshee.Run(cfg, workload, scheme)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig4 regenerates Fig. 4's bars: speedup over NoCache per
// scheme on a representative workload.
func BenchmarkFig4(b *testing.B) {
	for _, scheme := range []string{"Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee", "CacheOnly"} {
		b.Run(scheme, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				base := mustRun(b, cfg, "pagerank", "NoCache")
				res := mustRun(b, cfg, "pagerank", scheme)
				speedup = banshee.Speedup(res, base)
			}
			b.ReportMetric(speedup, "speedup-x")
		})
	}
}

// BenchmarkFig5 regenerates Fig. 5: in-package traffic per scheme.
func BenchmarkFig5(b *testing.B) {
	for _, scheme := range []string{"Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"} {
		b.Run(scheme, func(b *testing.B) {
			var bpi float64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchConfig(), "pagerank", scheme)
				bpi = res.InPkgBPI()
			}
			b.ReportMetric(bpi, "inpkg-B/i")
		})
	}
}

// BenchmarkFig6 regenerates Fig. 6: off-package traffic per scheme.
func BenchmarkFig6(b *testing.B) {
	for _, scheme := range []string{"Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"} {
		b.Run(scheme, func(b *testing.B) {
			var bpi float64
			for i := 0; i < b.N; i++ {
				res := mustRun(b, benchConfig(), "pagerank", scheme)
				bpi = res.OffPkgBPI()
			}
			b.ReportMetric(bpi, "offpkg-B/i")
		})
	}
}

// BenchmarkFig7 regenerates the replacement-policy ablation.
func BenchmarkFig7(b *testing.B) {
	for _, policy := range []string{"Banshee LRU", "Banshee NoSample", "Banshee", "TDC"} {
		b.Run(policy, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				base := mustRun(b, cfg, "pagerank", "NoCache")
				res := mustRun(b, cfg, "pagerank", policy)
				speedup = banshee.Speedup(res, base)
			}
			b.ReportMetric(speedup, "speedup-x")
		})
	}
}

// BenchmarkFig8Latency regenerates Fig. 8b: the in-package latency sweep.
func BenchmarkFig8Latency(b *testing.B) {
	for _, scale := range []float64{1.0, 0.66, 0.50} {
		b.Run(fmt.Sprintf("lat=%.0f%%", scale*100), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.InPkgLatScale = scale
				base := mustRun(b, cfg, "pagerank", "NoCache")
				res := mustRun(b, cfg, "pagerank", "Banshee")
				speedup = banshee.Speedup(res, base)
			}
			b.ReportMetric(speedup, "speedup-x")
		})
	}
}

// BenchmarkFig8Bandwidth regenerates Fig. 8c: the bandwidth sweep.
func BenchmarkFig8Bandwidth(b *testing.B) {
	for _, channels := range []int{8, 4, 2} {
		b.Run(fmt.Sprintf("bw=%dx", channels), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.InPkgChannels = channels
				base := mustRun(b, cfg, "pagerank", "NoCache")
				res := mustRun(b, cfg, "pagerank", "Banshee")
				speedup = banshee.Speedup(res, base)
			}
			b.ReportMetric(speedup, "speedup-x")
		})
	}
}

// BenchmarkFig9 regenerates the sampling-coefficient sweep: miss rate
// and counter traffic.
func BenchmarkFig9(b *testing.B) {
	for _, coeff := range []float64{1, 0.1, 0.01} {
		b.Run(fmt.Sprintf("coeff=%g", coeff), func(b *testing.B) {
			var miss, counterBPI float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Scheme, _ = banshee.ParseScheme("Banshee")
				cfg.Scheme.BansheeSamplingCoeff = coeff
				res := mustRun(b, cfg, "pagerank", "Banshee")
				miss = res.MissRate() * 100
				counterBPI = res.ClassBPI(mem.ClassCounter)
			}
			b.ReportMetric(miss, "miss-%")
			b.ReportMetric(counterBPI, "counter-B/i")
		})
	}
}

// BenchmarkTable5 regenerates the PTE-update cost sweep.
func BenchmarkTable5(b *testing.B) {
	for _, us := range []float64{10, 20, 40} {
		b.Run(fmt.Sprintf("cost=%.0fus", us), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Scheme, _ = banshee.ParseScheme("Banshee")
				cfg.Scheme.PTEUpdateMicros = 0.001
				free := mustRun(b, cfg, "pagerank", "Banshee")
				cfg.Scheme.PTEUpdateMicros = us
				cost := mustRun(b, cfg, "pagerank", "Banshee")
				loss = (float64(cost.Cycles)/float64(free.Cycles) - 1) * 100
			}
			b.ReportMetric(loss, "perf-loss-%")
		})
	}
}

// BenchmarkTable6 regenerates the associativity sweep.
func BenchmarkTable6(b *testing.B) {
	for _, ways := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Scheme, _ = banshee.ParseScheme("Banshee")
				cfg.Scheme.BansheeWays = ways
				res := mustRun(b, cfg, "pagerank", "Banshee")
				miss = res.MissRate() * 100
			}
			b.ReportMetric(miss, "miss-%")
		})
	}
}

// BenchmarkLargePages regenerates §5.4.1: 2 MB vs 4 KB pages.
func BenchmarkLargePages(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		small := mustRun(b, cfg, "pagerank", "Banshee")
		cfg.LargePages = true
		large := mustRun(b, cfg, "pagerank", "Banshee 2M")
		gain = (banshee.Speedup(large, small) - 1) * 100
	}
	b.ReportMetric(gain, "2M-gain-%")
}

// BenchmarkBatman regenerates §5.4.2: bandwidth balancing gains.
func BenchmarkBatman(b *testing.B) {
	for _, scheme := range []string{"Alloy 1", "Banshee"} {
		b.Run(scheme, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				plain := mustRun(b, cfg, "pagerank", scheme)
				bal := mustRun(b, cfg, "pagerank", scheme+"+BATMAN")
				gain = (banshee.Speedup(bal, plain) - 1) * 100
			}
			b.ReportMetric(gain, "batman-gain-%")
		})
	}
}

// endToEndRun is one BenchmarkEndToEnd iteration: a 4-core mix1 run
// of Banshee under seed i+1.
func endToEndRun(i int) error {
	cfg := banshee.DefaultConfig()
	cfg.Cores = 4
	cfg.InstrPerCore = 100_000
	cfg.Seed = uint64(i + 1)
	_, err := banshee.Run(cfg, "mix1", "Banshee")
	return err
}

// BenchmarkEndToEnd measures whole-simulation throughput
// (instructions simulated per wall-second is 1/ns-per-op × instr).
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := endToEndRun(i); err != nil {
			b.Fatal(err)
		}
	}
}

// gangSweepWorkload and gangSweepScheme are BenchmarkGangSweep's
// workload: the triangle-counting kernel (its sequential edge scans
// give the long L1/L2-hit runs the lane batcher replays in bulk) under
// TDC.
const gangSweepWorkload, gangSweepScheme = "tri_count_kernel", "TDC"

// gangSweepConfig is the base config of both BenchmarkGangSweep arms.
// WarmupFrac is 0 — the benchmark measures engine throughput over the
// whole run, not a warmed measurement window — and both arms share one
// WorkloadSeed so they simulate the identical event streams.
func gangSweepConfig() banshee.Config {
	cfg := benchConfig()
	cfg.WorkloadSeed = 42
	cfg.WarmupFrac = 0
	return cfg
}

var gangSweepSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// gangSweepArms are BenchmarkGangSweep's two ways to run the 8-seed
// sweep; each returns the sweep's total simulated memory accesses.
var gangSweepArms = []struct {
	name string
	run  func() (accesses uint64, err error)
}{
	{"independent", func() (uint64, error) {
		var accesses uint64
		for _, sd := range gangSweepSeeds {
			cfg := gangSweepConfig()
			cfg.Seed = sd
			res, err := banshee.Run(cfg, gangSweepWorkload, gangSweepScheme)
			if err != nil {
				return 0, err
			}
			accesses += res.L1Accesses
		}
		return accesses, nil
	}},
	{"gang8", func() (uint64, error) {
		g, err := banshee.NewGangSession(gangSweepConfig(), gangSweepWorkload, gangSweepScheme, gangSweepSeeds)
		if err != nil {
			return 0, err
		}
		res, err := g.Run(context.Background())
		if err != nil {
			return 0, err
		}
		var accesses uint64
		for _, r := range res {
			accesses += r.L1Accesses
		}
		return accesses, nil
	}},
}

// BenchmarkGangSweep measures the gang execution engine (DESIGN.md
// §12): the same 8-seed sweep run as 8 independent simulations versus
// one width-8 gang, reporting aggregate simulated memory accesses per
// wall-second. The gang arm is the headline number: it must sustain
// ≥2× the independent arm's aggregate accesses/sec.
func BenchmarkGangSweep(b *testing.B) {
	// Build the graph substrate outside the timed regions (it is cached
	// and shared by both arms; a short run forces construction).
	warm := gangSweepConfig()
	warm.InstrPerCore = 1_000
	if _, err := banshee.Run(warm, gangSweepWorkload, gangSweepScheme); err != nil {
		b.Fatal(err)
	}
	for _, arm := range gangSweepArms {
		b.Run(arm.name, func(b *testing.B) {
			var accesses uint64
			for i := 0; i < b.N; i++ {
				var err error
				if accesses, err = arm.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}

// countWriter measures encoded bytes without storing them.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// BenchmarkTraceFileEncode measures trace capture throughput: events
// pre-generated once, encoded per iteration (varint+delta, chunk
// framing, CRC). Reported as MB/s of encoded output plus events/s.
func BenchmarkTraceFileEncode(b *testing.B) {
	const n = 1 << 16
	w, err := trace.New("mcf", 1, 1, trace.WithScale(1.0/16))
	if err != nil {
		b.Fatal(err)
	}
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = w.Next(0)
	}
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := &countWriter{}
		tw, err := tracefile.NewWriter(cw, tracefile.Meta{Name: "mcf", Cores: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range evs {
			if err := tw.Append(0, ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := tw.Close(); err != nil {
			b.Fatal(err)
		}
		size = cw.n
	}
	b.SetBytes(size)
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceFileDecode measures replay throughput: a trace encoded
// once, fully decoded per iteration (open, chunk loads, CRC checks,
// varint+delta decode).
func BenchmarkTraceFileDecode(b *testing.B) {
	const n = 1 << 16
	w, err := trace.New("mcf", 1, 1, trace.WithScale(1.0/16))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.Meta{Name: "mcf", Cores: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tw.Append(0, w.Next(0)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tracefile.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			r.Next(0)
		}
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTraceFileReplaySim measures an end-to-end replayed
// simulation against the direct synthetic run it must match.
func BenchmarkTraceFileReplaySim(b *testing.B) {
	cfg := benchConfig()
	cfg.InstrPerCore = 100_000
	path := filepath.Join(b.TempDir(), "mcf.btrc")
	err := banshee.RecordTrace(path, "mcf", banshee.RecordOptions{
		Cores: cfg.Cores, Seed: cfg.Seed, EventsPerCore: cfg.InstrPerCore,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, cfg, "mcf", "Banshee")
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, cfg, "file:"+path, "Banshee")
		}
	})
}
