package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"banshee/internal/runner"
)

var updateJobs = flag.Bool("update", false, "rewrite testdata/jobs.golden")

// TestExperimentJobsSnapshot pins every experiment matrix's job list:
// each sink record's coordinate and content key, in sink order. A
// change to how an experiment declares its sweep (its axes, its
// overrides, their encoding) must leave this file byte-identical.
func TestExperimentJobsSnapshot(t *testing.T) {
	o := Options{Instr: 2000, Seed: 42, Workloads: []string{"pagerank", "lbm"}, Out: t.TempDir()}
	Fig4(o)
	Traffic(o)
	Fig7(o)
	Fig8(o)
	Fig9(o)
	Table5(o)
	Table6(o)
	LargePages(o)
	Batman(o)

	var b strings.Builder
	for _, name := range []string{"fig4", "traffic", "fig7", "fig8", "fig9", "table5", "table6", "largepage", "batman"} {
		data, err := os.ReadFile(filepath.Join(o.Out, name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := runner.ParseRecords(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range recs {
			fmt.Fprintf(&b, "%s|%s|%s|%s|%d %s\n", r.Matrix, r.Label, r.Workload, r.Scheme, r.Seed, r.ID)
		}
	}
	golden := filepath.Join("testdata", "jobs.golden")
	if *updateJobs {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("experiment jobs moved from %s:\n%s", golden, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "identical"
}
