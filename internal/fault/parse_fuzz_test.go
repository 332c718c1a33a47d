package fault_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"banshee/internal/errs"
	"banshee/internal/fault"
	"banshee/internal/registry"
	"banshee/internal/sim"
	"banshee/internal/workload"
)

// FuzzNameParsers feeds one untrusted name to both name parsers a run
// resolves — sim.ParseScheme and workload.Open, which here also sees
// the "fault:" kind — and checks that neither panics, that every error
// wraps ErrUnknownScheme or ErrUnknownWorkload or is a
// *errs.ConfigError, that an accepted "fault:" plan has every rate in
// [0,1] and a non-negative stall, and that an accepted scheme has a
// registered kind. Names that reach the file system ("file:") are
// skipped.
func FuzzNameParsers(f *testing.F) {
	kinds := map[string]bool{}
	for _, n := range registry.Names() {
		spec, err := sim.ParseScheme(n)
		if err != nil {
			f.Fatalf("registered name %q does not parse: %v", n, err)
		}
		kinds[spec.Kind] = true
		f.Add(n)
		f.Add(n + "+BATMAN")
	}
	for _, n := range []string{
		"pagerank", "lbm", "mix1", "pagerank_kernel", " Banshee +BATMAN+BATMAN ",
		"fault:panic=1:pagerank", "fault:err=0.5,seed=3:mix1", "fault:stall=1,stallms=5:lbm",
		"fault:panic=NaN:lbm", "fault:stallms=NaN:lbm", "fault:stallms=Inf:lbm",
		"fault:stallms=1e300:lbm", "fault:stallms=-0:lbm", "fault::lbm", "fault:seed=1:fault:err=1:lbm",
	} {
		f.Add(n)
	}

	typed := func(t *testing.T, what string, err error) {
		var ce *errs.ConfigError
		if !errors.Is(err, errs.ErrUnknownScheme) && !errors.Is(err, errs.ErrUnknownWorkload) && !errors.As(err, &ce) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, name string) {
		if spec, err := sim.ParseScheme(name); err != nil {
			typed(t, "ParseScheme", err)
		} else if !kinds[spec.Kind] {
			t.Fatalf("ParseScheme(%q) accepted unregistered kind %q", name, spec.Kind)
		}

		if strings.Contains(name, "file:") {
			return
		}
		src, err := workload.Open(name, workload.Config{Cores: 1, Seed: 1, Scale: 1.0 / 1024})
		if err != nil {
			typed(t, "workload.Open", err)
			return
		}
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(name), fault.Prefix)
		if !ok {
			return
		}
		spec, _, _ := strings.Cut(rest, ":")
		p, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatalf("workload.Open accepted %q but its plan does not parse: %v", name, err)
		}
		for _, r := range []float64{p.PanicRate, p.ErrRate, p.StallRate, p.ShortRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("accepted plan %q has rate %v outside [0,1]", spec, r)
			}
		}
		if p.Stall < 0 {
			t.Fatalf("accepted plan %q has negative stall %v", spec, p.Stall)
		}
	})
}
