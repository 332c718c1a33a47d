// Package registry is the pluggable scheme-selection layer: every
// DRAM-cache design registers a kind, the display names it answers to,
// a spec parser, and a builder, and the simulator resolves schemes
// purely through lookups. Registration happens in this package's
// per-scheme init functions for the built-in designs (one file per
// scheme), and out-of-tree schemes can join the same tables at runtime
// through the root package's banshee.RegisterScheme.
//
// Modifiers — today only "+BATMAN" — register separately: a suffix, a
// spec mark, and a wrap step applied after the base scheme is built.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"banshee/internal/banshee"
	"banshee/internal/errs"
	"banshee/internal/mc"
	"banshee/internal/vm"
)

// Spec selects and tunes the DRAM-cache scheme for a run. It is the
// parsed, plain-data form of a display name; sim.SchemeSpec aliases it.
type Spec struct {
	// Kind names the registered scheme that builds this spec:
	// "nocache", "cacheonly", "alloy", "unison", "tdc", "cameo", "hma",
	// "banshee", or any out-of-tree registration.
	Kind string

	// AlloyFillProb is Alloy's stochastic fill probability (1 or 0.1 in
	// the paper). 0 defaults to 1.
	AlloyFillProb float64

	// Banshee tuning (zero values take Table 3 defaults).
	BansheePolicy        banshee.Policy
	BansheeWays          int
	BansheeSamplingCoeff float64
	BansheeThreshold     float64
	BansheeLargePages    bool
	BansheeFootprint     bool
	BansheeTagBufEntries int

	// PTEUpdateMicros overrides the tag-buffer flush routine cost
	// (Table 5 sweeps 10/20/40 µs). 0 → 20 µs.
	PTEUpdateMicros float64

	// HMAEpochAccesses overrides HMA's epoch length in MC accesses.
	HMAEpochAccesses uint64

	// BATMAN wraps the scheme with bandwidth balancing (§5.4.2).
	BATMAN bool
}

// Env carries the simulation-level context a builder needs: the
// capacity the cache must cover, the run seed, and clocking for
// software cost models.
type Env struct {
	CapacityBytes int
	Seed          uint64
	CPUMHz        float64
	LargePages    bool // workload data lives on 2 MB pages
	// PageTable and TLBs are read by no scheme: Banshee keeps a page's
	// location in its own metadata and declares its shootdowns
	// (mc.SWCost.FlushTLBs). They stay only because perfbench/replay.go
	// sets them.
	PageTable *vm.PageTable
	TLBs      []*vm.TLB
	Cost      vm.CostModel
}

// Scheme is one registered DRAM-cache design.
type Scheme struct {
	// Kind is the unique key Build dispatches on (Spec.Kind).
	Kind string
	// Names lists every display name this scheme's Parse accepts, for
	// listings and round-trip tests.
	Names []string
	// Compare lists the subset of Names that belongs in the paper's
	// main comparison (Fig. 4 bars); nil for schemes outside it.
	Compare []string
	// Rank orders this scheme among the main-comparison bars.
	Rank int
	// Parse maps a display name (modifier suffixes already stripped) to
	// a spec. ok=false means the name is not this scheme's.
	Parse func(name string) (Spec, bool)
	// Build constructs the scheme instance for a parsed spec.
	Build func(spec Spec, env Env) (mc.Scheme, error)
	// NoAllCoreStall declares that instances built from this
	// registration never charge an all-core stall
	// (mc.SWCost.AllCoresCycles) nor shoot down the TLBs
	// (mc.SWCost.FlushTLBs). Any scheme may run as a gang lane, but only
	// lanes with this declaration batch-replay core-private events: the
	// simulator applies a stall when it next schedules each core, so a
	// core batched past another core's stall would pick it up at a
	// different point in the event order. Banshee and HMA stall every
	// core. Defaults to false, so out-of-tree schemes opt in explicitly.
	NoAllCoreStall bool
}

// Modifier is a registered scheme wrapper selected by a name suffix.
type Modifier struct {
	// Suffix is the display-name suffix ("+BATMAN").
	Suffix string
	// Apply marks the spec when Suffix is parsed off a name.
	Apply func(spec *Spec)
	// Active reports whether the spec carries this modifier's mark.
	Active func(spec Spec) bool
	// Wrap layers the modifier over a built scheme.
	Wrap func(inner mc.Scheme, spec Spec, env Env) (mc.Scheme, error)
}

var (
	mu        sync.RWMutex
	entries   []Scheme
	byKind    = map[string]int{} // Kind → index into entries
	modifiers []Modifier
)

// Register adds a scheme to the registry. It panics on a duplicate or
// empty kind and on a missing parser or builder — registration is code
// configuration, so a bad entry is a bug worth failing loudly on.
func Register(s Scheme) {
	if s.Kind == "" || s.Parse == nil || s.Build == nil {
		panic(fmt.Sprintf("registry: incomplete scheme registration %+v", s))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := byKind[s.Kind]; dup {
		panic(fmt.Sprintf("registry: duplicate scheme kind %q", s.Kind))
	}
	byKind[s.Kind] = len(entries)
	entries = append(entries, s)
}

// RegisterModifier adds a suffix modifier. Panics on duplicates and
// incomplete entries, like Register.
func RegisterModifier(m Modifier) {
	if m.Suffix == "" || m.Apply == nil || m.Active == nil || m.Wrap == nil {
		panic(fmt.Sprintf("registry: incomplete modifier registration %+v", m))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, have := range modifiers {
		if have.Suffix == m.Suffix {
			panic(fmt.Sprintf("registry: duplicate modifier suffix %q", m.Suffix))
		}
	}
	modifiers = append(modifiers, m)
}

// Parse resolves a display name — optionally carrying registered
// modifier suffixes — into a spec.
func Parse(name string) (Spec, error) {
	mu.RLock()
	defer mu.RUnlock()
	n := strings.TrimSpace(name)
	var marks []func(*Spec)
	for stripped := true; stripped; {
		stripped = false
		for _, m := range modifiers {
			if strings.HasSuffix(n, m.Suffix) {
				n = strings.TrimSpace(strings.TrimSuffix(n, m.Suffix))
				marks = append(marks, m.Apply)
				stripped = true
			}
		}
	}
	for _, s := range entries {
		if spec, ok := s.Parse(n); ok {
			for _, mark := range marks {
				mark(&spec)
			}
			return spec, nil
		}
	}
	return Spec{}, fmt.Errorf("sim: %w %q", errs.ErrUnknownScheme, name)
}

// Build constructs the scheme for spec, layering any active modifiers.
func Build(spec Spec, env Env) (mc.Scheme, error) {
	mu.RLock()
	defer mu.RUnlock()
	i, ok := byKind[spec.Kind]
	if !ok {
		return nil, fmt.Errorf("sim: %w kind %q", errs.ErrUnknownScheme, spec.Kind)
	}
	s, err := entries[i].Build(spec, env)
	if err != nil {
		return nil, err
	}
	for _, m := range modifiers {
		if !m.Active(spec) {
			continue
		}
		if s, err = m.Wrap(s, spec, env); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Names returns every registered display name (without modifier
// suffixes), in registration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for _, s := range entries {
		out = append(out, s.Names...)
	}
	return out
}

// Comparison returns the display names of the paper's main comparison
// (Fig. 4 bars) in rank order — the list banshee.Schemes serves.
func Comparison() []string {
	mu.RLock()
	defer mu.RUnlock()
	ranked := make([]Scheme, len(entries))
	copy(ranked, entries)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Rank < ranked[j].Rank })
	var out []string
	for _, s := range ranked {
		out = append(out, s.Compare...)
	}
	return out
}

// Batchable reports whether a lane of spec's scheme may batch-replay
// core-private events (sim's batchShared): the scheme's registration
// declares it never charges an all-core stall (Scheme.NoAllCoreStall),
// and no modifier is active on the spec (modifiers wrap arbitrary
// behavior around a scheme, so an active one voids the declaration).
func Batchable(spec Spec) bool {
	mu.RLock()
	defer mu.RUnlock()
	i, ok := byKind[spec.Kind]
	if !ok || !entries[i].NoAllCoreStall {
		return false
	}
	for _, m := range modifiers {
		if m.Active(spec) {
			return false
		}
	}
	return true
}

// Overlay returns parsed with any tuning knobs set on t taking
// precedence — the sweep contract: a caller can pre-set tuning fields
// on its config's spec and still select the scheme by display name.
func Overlay(parsed, t Spec) Spec {
	parsed.AlloyFillProb = pickF(t.AlloyFillProb, parsed.AlloyFillProb)
	parsed.BansheeWays = pickI(t.BansheeWays, parsed.BansheeWays)
	parsed.BansheeSamplingCoeff = pickF(t.BansheeSamplingCoeff, parsed.BansheeSamplingCoeff)
	parsed.BansheeThreshold = pickF(t.BansheeThreshold, parsed.BansheeThreshold)
	parsed.BansheeTagBufEntries = pickI(t.BansheeTagBufEntries, parsed.BansheeTagBufEntries)
	parsed.PTEUpdateMicros = pickF(t.PTEUpdateMicros, parsed.PTEUpdateMicros)
	if t.HMAEpochAccesses != 0 {
		parsed.HMAEpochAccesses = t.HMAEpochAccesses
	}
	parsed.BansheeFootprint = parsed.BansheeFootprint || t.BansheeFootprint
	return parsed
}

func pickF(override, base float64) float64 {
	if override != 0 {
		return override
	}
	return base
}

func pickI(override, base int) int {
	if override != 0 {
		return override
	}
	return base
}

// exact returns a parser accepting the given display names as kind.
func exact(kind string, names ...string) func(string) (Spec, bool) {
	return func(name string) (Spec, bool) {
		for _, n := range names {
			if name == n {
				return Spec{Kind: kind}, true
			}
		}
		return Spec{}, false
	}
}
