package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"banshee/internal/mem"
)

// tiny returns Options small enough for unit testing the experiment
// plumbing (the full-size runs live in cmd/experiments).
func tiny() Options {
	return Options{
		Instr:     120_000,
		Seed:      42,
		Workloads: []string{"pagerank", "lbm"},
	}
}

func TestTable1Static(t *testing.T) {
	out := Table1().String()
	for _, scheme := range []string{"Unison", "Alloy", "TDC", "HMA", "Banshee"} {
		if !strings.Contains(out, scheme) {
			t.Errorf("Table 1 missing %s", scheme)
		}
	}
}

func TestFig4Structure(t *testing.T) {
	r := Fig4(tiny())
	if len(r.Workloads) != 2 || len(r.Schemes) != 7 {
		t.Fatalf("unexpected matrix %dx%d", len(r.Workloads), len(r.Schemes))
	}
	for _, w := range r.Workloads {
		if r.Speedup[w]["NoCache"] != 1.0 {
			t.Errorf("%s: NoCache speedup %v != 1", w, r.Speedup[w]["NoCache"])
		}
		if r.MPKI[w]["CacheOnly"] != 0 {
			t.Errorf("%s: CacheOnly MPKI %v != 0", w, r.MPKI[w]["CacheOnly"])
		}
		for s, v := range r.Speedup[w] {
			if v <= 0 {
				t.Errorf("%s/%s: non-positive speedup %v", w, s, v)
			}
		}
	}
	if r.GeoMean["CacheOnly"] <= 1 {
		t.Errorf("CacheOnly geomean %v not above NoCache", r.GeoMean["CacheOnly"])
	}
	gains := r.BansheeGains()
	if len(gains) != 4 {
		t.Fatalf("gains for %d baselines", len(gains))
	}
	if !strings.Contains(r.Table().String(), "geo-mean") {
		t.Fatal("rendered table missing geo-mean row")
	}
}

func TestTrafficStructure(t *testing.T) {
	r := Traffic(tiny())
	for _, w := range r.Workloads {
		for _, s := range r.Schemes {
			total := 0.0
			for _, v := range r.InPkg[w][s] {
				total += v
			}
			if total <= 0 {
				t.Errorf("%s/%s: zero in-package traffic", w, s)
			}
			if r.OffPkg[w][s] < 0 {
				t.Errorf("%s/%s: negative off-package traffic", w, s)
			}
		}
		// Banshee must carry less in-package traffic than Unison — the
		// core claim the whole design rests on.
		bTot, uTot := 0.0, 0.0
		for _, v := range r.InPkg[w]["Banshee"] {
			bTot += v
		}
		for _, v := range r.InPkg[w]["Unison"] {
			uTot += v
		}
		if bTot >= uTot {
			t.Errorf("%s: Banshee in-package %.2f not below Unison %.2f", w, bTot, uTot)
		}
	}
	if !strings.Contains(r.InPkgTable().String(), "HitData") {
		t.Fatal("Fig.5 table malformed")
	}
	if !strings.Contains(r.OffPkgTable().String(), "average") {
		t.Fatal("Fig.6 table missing average row")
	}
}

func TestFig9SamplingShape(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"pagerank"}
	r := Fig9(o)
	if r.MissRate[0.01] < 0 || r.MissRate[1] > 1 {
		t.Fatal("miss rates out of range")
	}
	if !strings.Contains(r.Table().String(), "coefficient") {
		t.Fatal("Fig.9 table malformed")
	}
	// Fig. 9b: sampling exists to cut counter traffic, so counter
	// bytes per instruction must strictly fall as the coefficient does.
	for i := 1; i < len(r.Coeffs); i++ {
		hi, lo := r.Coeffs[i-1], r.Coeffs[i]
		if r.BPI[lo][mem.ClassCounter] >= r.BPI[hi][mem.ClassCounter] {
			t.Errorf("counter B/instr %.3f at coefficient %g, want below %.3f at %g",
				r.BPI[lo][mem.ClassCounter], lo, r.BPI[hi][mem.ClassCounter], hi)
		}
	}
}

func TestTable6Shape(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"pagerank"}
	r := Table6(o)
	if len(r.Ways) != 4 {
		t.Fatalf("ways %v", r.Ways)
	}
	for _, w := range r.Ways {
		if r.MissRate[w] <= 0 || r.MissRate[w] > 1 {
			t.Fatalf("miss rate %v at %d ways", r.MissRate[w], w)
		}
	}
	// More associativity must not make things dramatically worse.
	if r.MissRate[8] > r.MissRate[1]*1.2 {
		t.Fatalf("8-way miss rate %.3f far above direct-mapped %.3f", r.MissRate[8], r.MissRate[1])
	}
}

func TestLargePagesRuns(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"pagerank"}
	r := LargePages(o)
	if r.GeoMean <= 0 {
		t.Fatalf("geomean %v", r.GeoMean)
	}
	if !strings.Contains(r.Table().String(), "geo-mean") {
		t.Fatal("table malformed")
	}
}

// TestOutResume runs an experiment twice against the same output
// directory: the first run streams JSONL, the second (with Resume)
// must execute zero simulations and reproduce the same aggregates.
func TestOutResume(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"pagerank"}
	o.Out = t.TempDir()
	first := Table6(o)

	var progress bytes.Buffer
	o.Resume = true
	o.Engine.Progress = &progress
	second := Table6(o)

	if !strings.Contains(progress.String(), ", 0 executed") {
		t.Fatalf("resumed run re-simulated:\n%s", progress.String())
	}
	for _, w := range first.Ways {
		if first.MissRate[w] != second.MissRate[w] {
			t.Fatalf("resumed miss rate diverged at %d ways: %v vs %v",
				w, first.MissRate[w], second.MissRate[w])
		}
	}
	if _, err := os.Stat(filepath.Join(o.Out, "table6.jsonl")); err != nil {
		t.Fatalf("result file missing: %v", err)
	}
}

func TestBatmanRuns(t *testing.T) {
	o := tiny()
	o.Workloads = []string{"pagerank"}
	r := Batman(o)
	if _, ok := r.Gain["Banshee"]; !ok {
		t.Fatal("missing Banshee gain")
	}
	if !strings.Contains(r.Table().String(), "BATMAN") {
		t.Fatal("table malformed")
	}
}
