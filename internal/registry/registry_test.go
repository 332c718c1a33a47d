package registry

import (
	"strings"
	"sync"
	"testing"

	"banshee/internal/mc"
	"banshee/internal/schemes"
	"banshee/internal/vm"
)

// testEnv builds a small but fully wired environment, enough for every
// builtin builder.
func testEnv() Env {
	return Env{
		// The library's default scaled capacity; large enough that the
		// 2 MB-page configuration still gets a power-of-two set count.
		CapacityBytes: 1 << 26,
		Seed:          7,
		CPUMHz:        2700,
		Cost:          vm.DefaultCostModel(2700),
	}
}

// TestRoundTripAllNames is the registry's core property: every display
// name any scheme registers — alone and with every modifier suffix —
// parses to a spec whose kind builds a live scheme instance.
func TestRoundTripAllNames(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("suspiciously few registered names: %v", names)
	}
	var suffixes []string
	for _, m := range modifiers {
		suffixes = append(suffixes, m.Suffix)
	}
	for _, base := range names {
		for _, suffix := range append([]string{""}, suffixes...) {
			name := base + suffix
			spec, err := Parse(name)
			if err != nil {
				t.Errorf("Parse(%q): %v", name, err)
				continue
			}
			s, err := Build(spec, testEnv())
			if err != nil {
				t.Errorf("Build(%q): %v", name, err)
				continue
			}
			if s == nil {
				t.Errorf("Build(%q) returned nil scheme", name)
				continue
			}
			if suffix != "" && !spec.BATMAN {
				t.Errorf("Parse(%q) lost the modifier mark", name)
			}
			if suffix != "" && !strings.HasSuffix(s.Name(), suffix) {
				t.Errorf("Build(%q).Name() = %q, wrapper missing", name, s.Name())
			}
		}
	}
}

func TestComparisonMatchesPaperOrder(t *testing.T) {
	want := []string{"NoCache", "Unison", "TDC", "Alloy 1", "Alloy 0.1", "Banshee", "CacheOnly"}
	got := Comparison()
	if len(got) != len(want) {
		t.Fatalf("Comparison() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Comparison()[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestParseUnknown(t *testing.T) {
	if _, err := Parse("Bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Build(Spec{Kind: "bogus"}, testEnv()); err == nil {
		t.Fatal("unknown kind built")
	}
}

func TestOverlayPreservesTuning(t *testing.T) {
	parsed, err := Parse("Banshee")
	if err != nil {
		t.Fatal(err)
	}
	tuned := Overlay(parsed, Spec{BansheeWays: 8, PTEUpdateMicros: 40, BansheeFootprint: true})
	if tuned.BansheeWays != 8 || tuned.PTEUpdateMicros != 40 || !tuned.BansheeFootprint {
		t.Fatalf("tuning lost: %+v", tuned)
	}
	if tuned.Kind != "banshee" {
		t.Fatalf("kind lost: %+v", tuned)
	}
	// Parsed fields survive when the tuning spec leaves them zero.
	alloy, _ := Parse("Alloy 0.1")
	if got := Overlay(alloy, Spec{}); got.AlloyFillProb != 0.1 {
		t.Fatalf("parsed fill prob lost: %+v", got)
	}
}

// registerTestDirect runs once per process so `go test -count=N` does
// not trip the duplicate-kind panic on the global registry.
var registerTestDirect = sync.OnceFunc(func() {
	Register(Scheme{
		Kind:  "testdirect",
		Names: []string{"TestDirect"},
		Parse: exact("testdirect", "TestDirect"),
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			return schemes.NewNoCache(), nil
		},
	})
})

// TestOutOfTreeRegistration registers a fresh scheme the way an
// external package would through banshee.RegisterScheme, and checks it
// resolves by name, builds, and composes with modifiers.
func TestOutOfTreeRegistration(t *testing.T) {
	registerTestDirect()
	spec, err := Parse("TestDirect+BATMAN")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != "testdirect" || !spec.BATMAN {
		t.Fatalf("spec = %+v", spec)
	}
	s, err := Build(spec, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(s.Name(), "+BATMAN") {
		t.Fatalf("modifier not applied to out-of-tree scheme: %q", s.Name())
	}
	found := false
	for _, n := range Names() {
		if n == "TestDirect" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered name missing from Names()")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate kind registration did not panic")
		}
	}()
	Register(Scheme{
		Kind:  "banshee",
		Names: []string{"Banshee Again"},
		Parse: exact("banshee", "Banshee Again"),
		Build: func(Spec, Env) (mc.Scheme, error) { return schemes.NewNoCache(), nil },
	})
}
