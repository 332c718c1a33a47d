package exp

import (
	"fmt"

	"banshee/internal/mem"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// Fig4Result holds speedups over NoCache and MPKI per workload/scheme —
// the bars and red dots of Fig. 4.
type Fig4Result struct {
	Schemes   []string
	Workloads []string
	// Speedup[workload][scheme], MPKI[workload][scheme]
	Speedup map[string]map[string]float64
	MPKI    map[string]map[string]float64
	// GeoMean[scheme]
	GeoMean map[string]float64
}

// Fig4 reproduces Fig. 4: speedup normalized to NoCache (bars) and
// DRAM-cache MPKI (dots) for every workload and scheme.
func Fig4(o Options) *Fig4Result {
	schemes := []string{"NoCache", "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee", "CacheOnly"}
	workloads := o.workloads()
	rs := run(o, o.matrix("fig4", workloads, schemes))

	out := &Fig4Result{
		Schemes:   schemes,
		Workloads: workloads,
		Speedup:   map[string]map[string]float64{},
		MPKI:      map[string]map[string]float64{},
		GeoMean:   map[string]float64{},
	}
	for _, w := range workloads {
		base := rs.Get("", w, "NoCache")
		out.Speedup[w] = map[string]float64{}
		out.MPKI[w] = map[string]float64{}
		for _, s := range schemes {
			st := rs.Get("", w, s)
			out.Speedup[w][s] = stats.Speedup(&st, &base)
			out.MPKI[w][s] = st.MPKI()
		}
	}
	for _, s := range schemes {
		var xs []float64
		for _, w := range workloads {
			xs = append(xs, out.Speedup[w][s])
		}
		out.GeoMean[s] = stats.GeoMean(xs)
	}
	return out
}

// Table renders the result in the paper's layout.
func (r *Fig4Result) Table() *stats.Table {
	cols := append([]string{"workload"}, r.Schemes...)
	t := stats.NewTable("Fig. 4: Speedup normalized to NoCache (MPKI in parentheses)", cols...)
	for _, w := range r.Workloads {
		cells := []string{w}
		for _, s := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%.2f (%.1f)", r.Speedup[w][s], r.MPKI[w][s]))
		}
		t.AddRow(cells...)
	}
	cells := []string{"geo-mean"}
	for _, s := range r.Schemes {
		cells = append(cells, fmt.Sprintf("%.2f", r.GeoMean[s]))
	}
	t.AddRow(cells...)
	return t
}

// BansheeGains returns Banshee's geomean speedup relative to each
// baseline (the paper's 68.9% / 26.1% / 15.0% headline numbers).
func (r *Fig4Result) BansheeGains() map[string]float64 {
	out := map[string]float64{}
	for _, s := range []string{"Unison", "TDC", "Alloy 1", "Alloy 0.1"} {
		if r.GeoMean[s] > 0 {
			out[s] = r.GeoMean["Banshee"]/r.GeoMean[s] - 1
		}
	}
	return out
}

// TrafficResult holds the Fig. 5 / Fig. 6 traffic measurements.
type TrafficResult struct {
	Schemes   []string
	Workloads []string
	// InPkg[workload][scheme][class] in bytes/instruction.
	InPkg map[string]map[string]map[mem.Class]float64
	// OffPkg[workload][scheme] in bytes/instruction.
	OffPkg map[string]map[string]float64
}

// Traffic reproduces Fig. 5 (in-package traffic breakdown) and Fig. 6
// (off-package traffic) with one simulation matrix.
func Traffic(o Options) *TrafficResult {
	schemes := []string{"Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee"}
	workloads := o.workloads()
	rs := run(o, o.matrix("traffic", workloads, schemes))

	out := &TrafficResult{
		Schemes:   schemes,
		Workloads: workloads,
		InPkg:     map[string]map[string]map[mem.Class]float64{},
		OffPkg:    map[string]map[string]float64{},
	}
	for _, w := range workloads {
		out.InPkg[w] = map[string]map[mem.Class]float64{}
		out.OffPkg[w] = map[string]float64{}
		for _, s := range schemes {
			st := rs.Get("", w, s)
			byClass := map[mem.Class]float64{}
			for _, c := range mem.Classes() {
				byClass[c] = st.ClassBPI(c)
			}
			out.InPkg[w][s] = byClass
			out.OffPkg[w][s] = st.OffPkgBPI()
		}
	}
	return out
}

// InPkgTable renders Fig. 5.
func (r *TrafficResult) InPkgTable() *stats.Table {
	t := stats.NewTable("Fig. 5: In-package DRAM traffic (bytes/instruction)",
		"workload", "scheme", "HitData", "MissData", "Tag", "Counter", "Replace", "Total")
	for _, w := range r.Workloads {
		for _, s := range r.Schemes {
			b := r.InPkg[w][s]
			total := 0.0
			for _, v := range b {
				total += v
			}
			t.AddRow(w, s,
				fmt.Sprintf("%.2f", b[mem.ClassHitData]),
				fmt.Sprintf("%.2f", b[mem.ClassMissData]),
				fmt.Sprintf("%.2f", b[mem.ClassTag]),
				fmt.Sprintf("%.2f", b[mem.ClassCounter]),
				fmt.Sprintf("%.2f", b[mem.ClassReplacement]),
				fmt.Sprintf("%.2f", total))
		}
	}
	return t
}

// OffPkgTable renders Fig. 6.
func (r *TrafficResult) OffPkgTable() *stats.Table {
	cols := append([]string{"workload"}, r.Schemes...)
	t := stats.NewTable("Fig. 6: Off-package DRAM traffic (bytes/instruction)", cols...)
	for _, w := range r.Workloads {
		cells := []string{w}
		for _, s := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%.2f", r.OffPkg[w][s]))
		}
		t.AddRow(cells...)
	}
	// Average row (arithmetic, matching the figure's "average" group).
	cells := []string{"average"}
	for _, s := range r.Schemes {
		var xs []float64
		for _, w := range r.Workloads {
			xs = append(xs, r.OffPkg[w][s])
		}
		cells = append(cells, fmt.Sprintf("%.2f", stats.Mean(xs)))
	}
	t.AddRow(cells...)
	return t
}

// AvgInPkg returns the workload-averaged total in-package traffic per
// scheme (the 35.8% headline comparison).
func (r *TrafficResult) AvgInPkg() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Schemes {
		var sum float64
		for _, w := range r.Workloads {
			for _, v := range r.InPkg[w][s] {
				sum += v
			}
		}
		out[s] = sum / float64(len(r.Workloads))
	}
	return out
}

// AvgOffPkg returns the workload-averaged off-package traffic per scheme.
func (r *TrafficResult) AvgOffPkg() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Schemes {
		var xs []float64
		for _, w := range r.Workloads {
			xs = append(xs, r.OffPkg[w][s])
		}
		out[s] = stats.Mean(xs)
	}
	return out
}

// Fig7Result holds the replacement-policy ablation.
type Fig7Result struct {
	Schemes []string
	// Speedup[scheme] = geomean speedup over NoCache;
	// CacheBPI[scheme] = average in-package (DRAM cache) bytes/instr.
	Speedup  map[string]float64
	CacheBPI map[string]float64
}

// Fig7 reproduces Fig. 7: Banshee LRU vs FBR-no-sample vs Banshee vs
// TDC, averaged over all workloads.
func Fig7(o Options) *Fig7Result {
	schemes := []string{"Banshee LRU", "Banshee NoSample", "Banshee", "TDC"}
	workloads := o.workloads()
	rs := run(o, o.matrix("fig7", workloads, append(append([]string{}, schemes...), "NoCache")))

	out := &Fig7Result{Schemes: schemes, Speedup: map[string]float64{}, CacheBPI: map[string]float64{}}
	for _, s := range schemes {
		var sp, bpi []float64
		for _, w := range workloads {
			st := rs.Get("", w, s)
			base := rs.Get("", w, "NoCache")
			sp = append(sp, stats.Speedup(&st, &base))
			bpi = append(bpi, st.InPkgBPI())
		}
		out.Speedup[s] = stats.GeoMean(sp)
		out.CacheBPI[s] = stats.Mean(bpi)
	}
	return out
}

// Table renders Fig. 7.
func (r *Fig7Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 7: Replacement policies (geomean over workloads)",
		"policy", "speedup vs NoCache", "DRAM cache bytes/instr")
	for _, s := range r.Schemes {
		t.AddRow(s, fmt.Sprintf("%.2f", r.Speedup[s]), fmt.Sprintf("%.2f", r.CacheBPI[s]))
	}
	return t
}

// Fig8Result holds the latency/bandwidth sensitivity sweeps.
type Fig8Result struct {
	Schemes []string
	// Latency[label][scheme] and Bandwidth[label][scheme] are geomean
	// speedups over NoCache at that setting.
	LatencyLabels   []string
	BandwidthLabels []string
	Latency         map[string]map[string]float64
	Bandwidth       map[string]map[string]float64
}

// Fig8 reproduces Fig. 8b/8c: sweep in-package DRAM latency (100%, 66%,
// 50% of off-package) and bandwidth (8×, 4×, 2× of off-package).
func Fig8(o Options) *Fig8Result {
	schemes := []string{"Banshee", "Alloy 1", "TDC", "Unison"}
	// Fig. 8 is the most expensive sweep (6 points × 5 schemes), so it
	// runs on at most 4 workloads; smaller -workloads lists pass through.
	workloads := o.sweepWorkloads()
	if len(workloads) > 4 {
		workloads = workloads[:4]
	}
	out := &Fig8Result{
		Schemes:         schemes,
		LatencyLabels:   []string{"100%", "66%", "50%"},
		BandwidthLabels: []string{"8X", "4X", "2X"},
		Latency:         map[string]map[string]float64{},
		Bandwidth:       map[string]map[string]float64{},
	}

	latPoint := func(label string, scale float64) runner.Point {
		return point("lat/"+label, `{"InPkgLatScale":%v}`, scale)
	}
	bwPoint := func(label string, channels int) runner.Point {
		return point("bw/"+label, `{"InPkgChannels":%d}`, channels)
	}
	rs := run(o, o.matrix("fig8", workloads, append(append([]string{}, schemes...), "NoCache"),
		latPoint("100%", 1.0), latPoint("66%", 0.66), latPoint("50%", 0.50),
		bwPoint("8X", 8), bwPoint("4X", 4), bwPoint("2X", 2)))

	collect := func(prefix string, labels []string, dst map[string]map[string]float64) {
		for _, label := range labels {
			dst[label] = map[string]float64{}
			for _, s := range schemes {
				var xs []float64
				for _, w := range workloads {
					st := rs.Get(prefix+label, w, s)
					base := rs.Get(prefix+label, w, "NoCache")
					xs = append(xs, stats.Speedup(&st, &base))
				}
				dst[label][s] = stats.GeoMean(xs)
			}
		}
	}
	collect("lat/", out.LatencyLabels, out.Latency)
	collect("bw/", out.BandwidthLabels, out.Bandwidth)
	return out
}

// Tables renders Fig. 8b and 8c.
func (r *Fig8Result) Tables() []*stats.Table {
	lt := stats.NewTable("Fig. 8b: Sweeping DRAM cache latency (geomean speedup vs NoCache)",
		append([]string{"latency"}, r.Schemes...)...)
	for _, l := range r.LatencyLabels {
		cells := []string{l}
		for _, s := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%.2f", r.Latency[l][s]))
		}
		lt.AddRow(cells...)
	}
	bt := stats.NewTable("Fig. 8c: Sweeping DRAM cache bandwidth (geomean speedup vs NoCache)",
		append([]string{"bandwidth"}, r.Schemes...)...)
	for _, l := range r.BandwidthLabels {
		cells := []string{l}
		for _, s := range r.Schemes {
			cells = append(cells, fmt.Sprintf("%.2f", r.Bandwidth[l][s]))
		}
		bt.AddRow(cells...)
	}
	return []*stats.Table{lt, bt}
}

// Fig9Result holds the sampling-coefficient sweep.
type Fig9Result struct {
	Coeffs   []float64
	MissRate map[float64]float64
	// BPI[coeff][class] — the Fig. 9b traffic breakdown including the
	// Counter class.
	BPI map[float64]map[mem.Class]float64
}

// Fig9 reproduces Fig. 9: sweep Banshee's sampling coefficient over
// {1, 0.1, 0.01} and report DRAM-cache miss rate and traffic breakdown.
func Fig9(o Options) *Fig9Result {
	coeffs := []float64{1, 0.1, 0.01}
	workloads := o.sweepWorkloads()
	var points []runner.Point
	for _, c := range coeffs {
		points = append(points, point(fmt.Sprintf("%g", c), `{"Scheme":{"BansheeSamplingCoeff":%v}}`, c))
	}
	rs := run(o, o.matrix("fig9", workloads, []string{"Banshee"}, points...))

	out := &Fig9Result{Coeffs: coeffs, MissRate: map[float64]float64{}, BPI: map[float64]map[mem.Class]float64{}}
	for _, c := range coeffs {
		var mr []float64
		byClass := map[mem.Class]float64{}
		for _, w := range workloads {
			st := rs.Get(fmt.Sprintf("%g", c), w, "Banshee")
			mr = append(mr, st.MissRate())
			for _, cl := range mem.Classes() {
				byClass[cl] += st.ClassBPI(cl) / float64(len(workloads))
			}
		}
		out.MissRate[c] = stats.Mean(mr)
		out.BPI[c] = byClass
	}
	return out
}

// Table renders Fig. 9.
func (r *Fig9Result) Table() *stats.Table {
	t := stats.NewTable("Fig. 9: Sweeping sampling coefficient (averages over workloads)",
		"coefficient", "miss rate", "HitData", "MissData", "Tag", "Counter", "Replace")
	for _, c := range r.Coeffs {
		b := r.BPI[c]
		t.AddRow(fmt.Sprintf("%g", c),
			fmt.Sprintf("%.3f", r.MissRate[c]),
			fmt.Sprintf("%.2f", b[mem.ClassHitData]),
			fmt.Sprintf("%.2f", b[mem.ClassMissData]),
			fmt.Sprintf("%.2f", b[mem.ClassTag]),
			fmt.Sprintf("%.2f", b[mem.ClassCounter]),
			fmt.Sprintf("%.2f", b[mem.ClassReplacement]))
	}
	return t
}
