package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func TestTrafficAddTotal(t *testing.T) {
	var tr Traffic
	tr.Add(mem.ClassHitData, 64)
	tr.Add(mem.ClassTag, 32)
	tr.Add(mem.ClassHitData, 64)
	if tr.Total() != 160 {
		t.Fatalf("Total = %d, want 160", tr.Total())
	}
	if tr.Bytes[mem.ClassHitData] != 128 {
		t.Fatalf("HitData = %d", tr.Bytes[mem.ClassHitData])
	}
}

func TestDerivedMetrics(t *testing.T) {
	s := Sim{
		Instructions: 1000,
		Cycles:       4000,
		DCHits:       30,
		DCMisses:     10,
	}
	s.InPkg.Add(mem.ClassHitData, 2000)
	s.OffPkg.Add(mem.ClassMissData, 500)

	if got := s.IPC(); got != 0.25 {
		t.Errorf("IPC = %v", got)
	}
	if got := s.MPKI(); got != 10 {
		t.Errorf("MPKI = %v", got)
	}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v", got)
	}
	if got := s.DCHitRate(); got != 0.75 {
		t.Errorf("DCHitRate = %v", got)
	}
	if got := s.InPkgBPI(); got != 2 {
		t.Errorf("InPkgBPI = %v", got)
	}
	if got := s.OffPkgBPI(); got != 0.5 {
		t.Errorf("OffPkgBPI = %v", got)
	}
	if got := s.ClassBPI(mem.ClassHitData); got != 2 {
		t.Errorf("ClassBPI = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var s Sim
	if s.IPC() != 0 || s.MPKI() != 0 || s.MissRate() != 0 || s.DCHitRate() != 0 || s.InPkgBPI() != 0 || s.OffPkgBPI() != 0 {
		t.Fatal("zero-value Sim must yield zero metrics, not NaN")
	}
}

func TestSpeedup(t *testing.T) {
	base := Sim{Cycles: 2000}
	fast := Sim{Cycles: 1000}
	if got := Speedup(&fast, &base); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	var zero Sim
	if got := Speedup(&zero, &base); got != 0 {
		t.Fatalf("Speedup with zero cycles = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	// Non-positive values are ignored.
	got = GeoMean([]float64{0, -3, 2, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean with non-positives = %v", got)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(xsRaw []float64) bool {
		var xs []float64
		for _, x := range xsRaw {
			if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) && x < 1e100 && x > 1e-100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Max([]float64{3, 1, 2}) != 3 {
		t.Fatal("Max wrong")
	}
	if Max([]float64{-5, -2}) != -2 {
		t.Fatal("Max of negatives wrong")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("title", "name", "value")
	tb.AddRow("foo", "1")
	tb.AddRow("longer-name", "2")
	out := tb.String()
	if !strings.HasPrefix(out, "title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("unexpected line count %d: %q", len(lines), out)
	}
	// Columns must align: each data line starts with the padded name.
	if !strings.HasPrefix(lines[3], "foo        ") {
		t.Fatalf("row not padded: %q", lines[3])
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "2", "3", "4")
	if strings.Contains(tb.String(), "3") {
		t.Fatal("extra cells leaked into output")
	}
}
