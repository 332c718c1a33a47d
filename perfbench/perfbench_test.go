package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// issueMetrics are the end-to-end metrics each workload prints under
// its own name, beside the uniform set BENCHMARK.json bounds.
var issueMetrics = map[string][]named{
	"solo":    {{"setup_s", "s"}, {"setup_wall_s", "s"}, {"minstr_per_s", "Minstr/s"}, {"run_ms_p50", "ms"}, {"run_ms_p90", "ms"}, {"peak_rss_mb", "MB"}, {"fail_frac", "1"}},
	"fig4":    {{"setup_s", "s"}, {"setup_wall_s", "s"}, {"minstr_per_s", "Minstr/s"}, {"sweep_s", "s"}, {"peak_rss_mb", "MB"}, {"fail_frac", "1"}},
	"service": {{"setup_s", "s"}, {"setup_wall_s", "s"}, {"submit_ms_p50", "ms"}, {"submit_ms_p99", "ms"}, {"turnaround_ms_p50", "ms"}, {"turnaround_ms_p99", "ms"}, {"peak_rss_mb", "MB"}, {"fail_frac", "1"}},
}

// TestSelf runs every workload, timed and traced, at minimal length and
// checks that each prints all its metrics with their units, that every
// correctness check passes (on seed 1 that includes the digests saved in
// expected), and that every replay reproduces the run's counters (apart
// from the documented exceptions, which are not compared).
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, wl := range []string{"solo", "fig4", "service"} {
		for _, traced := range []bool{false, true} {
			rec, err := run(options{workload: wl, seed: 1, seconds: 0.5, trace: traced}, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			var out bytes.Buffer
			if err := printRecord(&out, rec); err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, mismatches %q",
					wl, traced, res.Correct, res.Attempted, res.Failed, rec.Mismatches)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if m := rec.Layers["replay.mismatches"]; m.Value != 0 {
					t.Errorf("%s: %v replay mismatches", wl, m.Value)
				}
			} else {
				for _, n := range issueMetrics[wl] {
					if m, ok := rec.EndToEnd[n.name]; !ok || m.Unit != n.unit {
						t.Errorf("%s: end-to-end metric %s missing or not in %s: %+v", wl, n.name, n.unit, m)
					} else if !strings.Contains(out.String(), " "+n.name+" ") {
						t.Errorf("%s: %s not printed", wl, n.name)
					}
				}
			}
			for _, n := range want {
				if m, ok := res.Metrics[n.name]; !ok || m.Unit != n.unit {
					t.Errorf("%s trace=%v: result metric %s missing or not in %s", wl, traced, n.name, n.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
