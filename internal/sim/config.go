// Package sim assembles the full simulated system of Table 2 — 16
// four-issue cores with private L1/L2 caches, a shared L3, per-core
// TLBs, a page table, the DRAM-cache scheme under test, and the two
// DRAM timing models — and replays synthetic workload traces through it
// in deterministic global time order.
//
// Scaling: the paper simulates a 1 GB DRAM cache over 100 G-instruction
// runs; at trace-simulation speed that is out of reach, so the default
// configuration scales the capacity-dependent structures (DRAM cache,
// L3, workload footprints) down by Scale (1/16) while keeping Table 2's
// bandwidths, latencies and per-core intensity unchanged. Relative
// behavior — who wins and by what factor — is preserved; DESIGN.md §3
// discusses the substitution.
package sim

import (
	"fmt"

	"banshee/internal/dram"
	"banshee/internal/errs"
	"banshee/internal/mc"
	"banshee/internal/registry"
	"banshee/internal/vm"
)

// SchemeSpec selects and tunes the DRAM-cache scheme for a run. It is
// an alias of registry.Spec: scheme selection lives in the pluggable
// registry, and sim only resolves and builds through it.
type SchemeSpec = registry.Spec

// ParseScheme maps the paper's display names to specs: "NoCache",
// "CacheOnly", "Alloy 1", "Alloy 0.1", "Unison", "TDC", "HMA",
// "Banshee", "Banshee LRU", "Banshee NoSample", "Banshee 2M", and the
// extensions "Banshee Duel" (set dueling, §5.2 future work) and
// "Banshee FP" (footprint caching, §6) — plus any scheme registered
// out-of-tree. A "+BATMAN" suffix wraps the scheme with bandwidth
// balancing.
func ParseScheme(name string) (SchemeSpec, error) {
	return registry.Parse(name)
}

// ResolveScheme parses a display name and overlays the tuning knobs
// already set on base — the sweep contract shared by Run and the batch
// runner: sweeps tune a scheme through Config.Scheme fields and still
// select it by name.
func ResolveScheme(name string, base SchemeSpec) (SchemeSpec, error) {
	spec, err := registry.Parse(name)
	if err != nil {
		return SchemeSpec{}, err
	}
	return registry.Overlay(spec, base), nil
}

// Config is a full experiment configuration.
type Config struct {
	Workload string
	Scheme   SchemeSpec

	Cores        int
	CPUMHz       float64
	IssueWidth   int     // core IPC for non-memory instructions
	MSHRs        int     // outstanding LLC misses a core can overlap
	DepStallFrac float64 // fraction of misses the core must block on

	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L3Bytes, L3Ways int
	TLBEntries      int

	DCacheBytes   int     // DRAM cache capacity (Alloy and CAMEO need ≥ 256 KB)
	InPkgChannels int     // 4 ⇒ paper's 4× bandwidth ratio (Fig. 8c sweeps)
	InPkgLatScale float64 // Fig. 8b latency sweep (1.0 = same as DDR)

	InstrPerCore uint64
	WarmupFrac   float64

	// PrefetchDegree enables the L2 stream prefetcher (§3.2 semantics:
	// page-boundary stop, mapping copied from the trigger) with the
	// given lines-ahead degree. 0 disables it (the paper's setup).
	PrefetchDegree int

	// Workload shaping.
	Scale      float64 // footprint scale (tracks the capacity scale)
	Intensity  float64 // MemRatio multiplier
	LargePages bool    // back every allocation with 2 MB pages

	Seed uint64

	// WorkloadSeed, when non-zero, seeds the workload stream
	// independently of Seed (which keeps seeding the scheme and core
	// timing models). Runs that differ only in Seed but share a
	// WorkloadSeed replay the same reference stream, which is what lets
	// a multi-seed sweep run as one lockstep gang (see Gang). 0 means
	// the stream follows Seed, as it always has.
	WorkloadSeed uint64 `json:",omitempty"`
}

// workloadSeed resolves the seed the workload stream is opened with.
func (c Config) workloadSeed() uint64 {
	if c.WorkloadSeed != 0 {
		return c.WorkloadSeed
	}
	return c.Seed
}

// ScaleFactor is the default capacity/footprint scale-down vs the paper.
const ScaleFactor = 1.0 / 16.0

// DefaultConfig returns the Table 2/3 system at the default scale.
func DefaultConfig() Config {
	return Config{
		Cores:        16,
		CPUMHz:       2700,
		IssueWidth:   4,
		MSHRs:        10,
		DepStallFrac: 0.15,

		L1Bytes: 32 << 10, L1Ways: 8,
		L2Bytes: 128 << 10, L2Ways: 8,
		L3Bytes: int(8 << 20 * ScaleFactor), L3Ways: 16,
		TLBEntries: 256,

		DCacheBytes:   int(1 << 30 * ScaleFactor),
		InPkgChannels: 4,
		InPkgLatScale: 1.0,

		InstrPerCore: 4_000_000,
		WarmupFrac:   0.25,

		Scale:     ScaleFactor,
		Intensity: 1.0,
	}
}

// validate rejects impossible configurations with *errs.ConfigError
// values naming the offending field, so callers can errors.As their way
// to the field instead of parsing messages.
func (c Config) validate() error {
	var ce *errs.ConfigError
	switch {
	case c.Cores < 0:
		ce = errs.Configf("Cores", "must be non-negative (0 adopts a trace file's recorded count), got %d", c.Cores)
	case c.IssueWidth <= 0:
		ce = errs.Configf("IssueWidth", "must be positive, got %d", c.IssueWidth)
	case c.MSHRs <= 0:
		ce = errs.Configf("MSHRs", "must be positive, got %d", c.MSHRs)
	case c.Workload == "":
		ce = errs.Configf("Workload", "not set")
	case c.Scheme.Kind == "":
		ce = errs.Configf("Scheme", "not set")
	case c.Scheme.BansheeLargePages && !c.LargePages:
		// Banshee charges one PTE per remapped page: its page is the run's.
		ce = errs.Configf("LargePages", "must be set for Banshee 2M, which caches 2 MB pages")
	case c.InstrPerCore == 0:
		ce = errs.Configf("InstrPerCore", "instruction budget not set")
	case c.WarmupFrac < 0 || c.WarmupFrac >= 1:
		ce = errs.Configf("WarmupFrac", "%v out of [0,1)", c.WarmupFrac)
	}
	if ce != nil {
		return fmt.Errorf("sim: %w", ce)
	}
	return nil
}

// buildScheme constructs the configured scheme through the registry.
func buildScheme(cfg Config) (mc.Scheme, error) {
	cost := vm.DefaultCostModel(cfg.CPUMHz)
	if cfg.Scheme.PTEUpdateMicros > 0 {
		cost.PTEUpdateCycles = uint64(float64(cfg.Scheme.PTEUpdateMicros * cfg.CPUMHz)) // rounded: no FMA
	}
	return registry.Build(cfg.Scheme, registry.Env{
		CapacityBytes: cfg.DCacheBytes,
		Seed:          cfg.Seed,
		CPUMHz:        cfg.CPUMHz,
		LargePages:    cfg.LargePages,
		Cost:          cost,
	})
}

// dramConfigs builds the two DRAM models per Table 2 and the sweep
// knobs of Fig. 8.
func dramConfigs(cfg Config) (inPkg, offPkg dram.Config) {
	offPkg = dram.OffPackageConfig(cfg.CPUMHz)
	inPkg = dram.InPackageConfig(cfg.CPUMHz)
	if cfg.InPkgChannels > 0 {
		inPkg.Channels = cfg.InPkgChannels
	}
	if cfg.InPkgLatScale > 0 {
		inPkg.LatencyScale = cfg.InPkgLatScale
	}
	return inPkg, offPkg
}
