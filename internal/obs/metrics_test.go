package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestUpdatePathZeroAlloc pins the disabled-path cost contract's
// enabled-side twin: metric updates in the engine's hot paths must not
// allocate, mirroring the scheme-Access AllocsPerRun=0 gates.
func TestUpdatePathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_us", "")
	var i uint64
	if avg := testing.AllocsPerRun(2000, func() {
		c.Inc()
		c.Add(3)
		g.Set(float64(i))
		g.Add(1)
		h.Observe(i)
		i++
	}); avg != 0 {
		t.Fatalf("metric update path allocates %v per op, want 0", avg)
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "")
	g := r.Gauge("busy", "")
	h := r.Histogram("dur_us", "")
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

// TestHistogramBuckets pins the power-of-two bucket boundaries: an
// exact power of two lands in its own bound, not the next one.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 8, 1 << 20} {
		h.Observe(v)
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 2, 20: 1} // le=1:{0,1} le=2:{2} le=4:{3,4} le=8:{5,8} le=2^20:{2^20}
	for i, n := range want {
		if got := h.counts[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
	if got, want := h.Sum(), uint64(0+1+2+3+4+5+8+1<<20); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`jobs_total{state="done"}`, "jobs by final state").Add(7)
	r.Counter(`jobs_total{state="failed"}`, "jobs by final state").Add(2)
	r.Gauge("busy", "busy workers").Set(3)
	r.GaugeFunc("derived", "", func() float64 { return 1.5 })
	h := r.Histogram("dur_us", "")
	h.Observe(3)
	h.Observe(100)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE jobs_total counter",
		"# HELP jobs_total jobs by final state",
		`jobs_total{state="done"} 7`,
		`jobs_total{state="failed"} 2`,
		"# TYPE busy gauge",
		"busy 3",
		"derived 1.5",
		"# TYPE dur_us histogram",
		`dur_us_bucket{le="4"} 1`,
		`dur_us_bucket{le="128"} 2`,
		`dur_us_bucket{le="+Inf"} 2`,
		"dur_us_sum 103",
		"dur_us_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
	// One TYPE header per family, even with several labeled series.
	if n := strings.Count(out, "# TYPE jobs_total"); n != 1 {
		t.Errorf("family header appears %d times, want 1", n)
	}
}

func TestJSONFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(5)
	r.Gauge("b", "").Set(2.5)
	r.Histogram("h_us", "").Observe(10)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if out["a_total"].(float64) != 5 || out["b"].(float64) != 2.5 {
		t.Errorf("unexpected values: %v", out)
	}
	hist := out["h_us"].(map[string]interface{})
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 10 {
		t.Errorf("unexpected histogram: %v", hist)
	}
}

func TestRegistryIdempotentAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "")
	c2 := r.Counter("x_total", "ignored second help")
	if c1 != c2 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind-mismatched re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(4)
	r.Histogram("h_us", "").Observe(9)
	s := r.Snapshot()
	if s["c_total"] != 4 || s["h_us_count"] != 1 || s["h_us_sum"] != 9 {
		t.Errorf("unexpected snapshot: %v", s)
	}
}

// TestProcessSeriesRenderOnce: every registry's exposition includes
// Process's series unwired, and a name both registries hold renders
// once, from the local registry — in Process's own exposition too.
func TestProcessSeriesRenderOnce(t *testing.T) {
	Process.Counter("obs_test_shared_total", "process").Add(1)
	r := NewRegistry()
	r.Counter("obs_test_shared_total", "local").Add(5)

	if s := r.Snapshot(); s["obs_test_shared_total"] != 5 || s["banshee_goroutines"] <= 0 {
		t.Errorf("snapshot: shared = %g, goroutines = %g; want 5 and > 0",
			s["obs_test_shared_total"], s["banshee_goroutines"])
	}
	for _, reg := range []*Registry{r, Process} {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, family := range []string{"obs_test_shared_total", "banshee_uptime_seconds"} {
			if n := strings.Count(out, "\n"+family+" "); n != 1 {
				t.Errorf("%s renders %d times, want 1:\n%s", family, n, out)
			}
			if n := strings.Count(out, "# TYPE "+family+" "); n != 1 {
				t.Errorf("%s has %d TYPE headers, want 1", family, n)
			}
		}
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nobs_test_shared_total 5\n") {
		t.Errorf("local registry's value did not win:\n%s", b.String())
	}
}
