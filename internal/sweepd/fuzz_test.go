package sweepd

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"banshee/internal/runner"
)

// decodeSpec decodes a request body the way handleSubmit does.
func decodeSpec(data []byte) (Spec, error) {
	var spec Spec
	err := json.NewDecoder(io.LimitReader(bytes.NewReader(data), 64<<20)).Decode(&spec)
	return spec, err
}

// FuzzSpecResolve fuzzes the sweep spec a client submits over the
// network: decoding and Resolve must never panic, and a spec that
// resolves must give jobs at distinct coordinates, each carrying its
// config's content key, and must describe the same sweep (SweepID and
// base seed) after a JSON round trip of its own encoding.
func FuzzSpecResolve(f *testing.F) {
	axes, err := json.Marshal(testSpec("fz-axes"))
	if err != nil {
		f.Fatal(err)
	}
	wrapped, err := SpecFromMatrix(runner.Matrix{Name: "fz-wrapped", Base: testBase(),
		Workloads: []string{"mcf"}, Schemes: []string{"NoCache", "Banshee"}}, RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	wrappedJSON, err := json.Marshal(wrapped)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(axes)
	f.Add(wrappedJSON)
	f.Add([]byte(`{"name":"fz-points","workloads":["pagerank"],"schemes":["Alloy 1","TDC"],` +
		`"points":[{"label":"base"},{"label":"lat","set":{"InPkgLatScale":0.5,"Scheme":{"AlloyFrac":0.1}}}]}`))
	f.Add([]byte(`{"name":"fz-seeds","workloads":["pagerank"],"schemes":["NoCache"],"seeds":[1,1]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil {
			return
		}
		// Keep the axes' cross product small enough to enumerate fast.
		n := max(len(spec.Points), 1) * len(spec.Workloads) * len(spec.Schemes) * max(len(spec.Seeds), 1)
		if len(spec.Points) > 256 || len(spec.Workloads) > 256 || len(spec.Schemes) > 256 || len(spec.Seeds) > 256 || n > 256 {
			return
		}
		jobs, err := spec.Resolve()
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[j.Coord()] {
				t.Fatalf("two jobs at coordinate %s", j.Coord())
			}
			seen[j.Coord()] = true
			if want := runner.JobKey(j.Config); j.ID != want {
				t.Fatalf("job %s has ID %s, its config hashes to %s", j.Coord(), j.ID, want)
			}
		}

		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("resolved spec not encodable: %v", err)
		}
		again, err := decodeSpec(b)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		jobs2, err := again.Resolve()
		if err != nil {
			t.Fatalf("re-encoded spec does not resolve: %v", err)
		}
		if SweepID(spec.Name, jobs2) != SweepID(spec.Name, jobs) || again.BaseSeed() != spec.BaseSeed() {
			t.Fatalf("re-encoded spec is a different sweep: ID %s / seed %d, want %s / %d",
				SweepID(spec.Name, jobs2), again.BaseSeed(), SweepID(spec.Name, jobs), spec.BaseSeed())
		}
	})
}
