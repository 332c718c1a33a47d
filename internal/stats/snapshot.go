package stats

// Phase identifies where a run is in its lifecycle: retiring warmup
// instructions, inside the measurement window, or complete.
type Phase int

const (
	PhaseWarmup Phase = iota
	PhaseMeasure
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseWarmup:
		return "warmup"
	case PhaseMeasure:
		return "measure"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// Snapshot is a windowed view of a running simulation at one instant:
// where the run is (instructions retired, wall clock in cycles, phase)
// plus a Sim holding every counter accumulated over the snapshot's
// window. All of a Sim's derived metrics (MPKI, IPC, traffic
// bytes-per-instruction) apply to the window, so a sequence of epoch
// snapshots is directly a time series of the paper's metrics.
//
// The window depends on how the snapshot was taken: Session.Snapshot
// windows from the start of the measurement phase (or the start of the
// run while still warming up), and OnEpoch snapshots window from the
// previous epoch boundary. In both cases every counter — core-side and
// scheme-internal alike — is windowed uniformly.
type Snapshot struct {
	// Retired is the total instructions retired across all cores at
	// capture time (whole run, not windowed).
	Retired uint64
	// Cycles is the maximum core clock at capture time (whole run).
	Cycles uint64
	// Phase is the run phase at capture time.
	Phase Phase
	// Window holds the counters accumulated over the snapshot window;
	// its Instructions and Cycles fields span the window, so derived
	// metrics are per-window rates.
	Window Sim
}

// Epoch is one epoch sample as every epoch stream writes it — the
// sample's position plus the per-window rates of the epoch that ended
// at it. bansheesim -epoch-json prints one per line, and a sweepd
// sweep's epochs.jsonl embeds one in each line beside the job's
// identity.
type Epoch struct {
	Retired   uint64  `json:"retired"`
	Cycles    uint64  `json:"cycles"`
	Phase     string  `json:"phase"`
	MPKI      float64 `json:"mpki"`
	IPC       float64 `json:"ipc"`
	DCHitRate float64 `json:"dc_hit_rate"`
	InPkgBPI  float64 `json:"in_pkg_bpi"`
	OffPkgBPI float64 `json:"off_pkg_bpi"`
}

// Epoch renders the snapshot as its epoch record.
func (s Snapshot) Epoch() Epoch {
	w := &s.Window
	return Epoch{
		Retired: s.Retired, Cycles: s.Cycles, Phase: s.Phase.String(),
		MPKI: w.MPKI(), IPC: w.IPC(), DCHitRate: w.DCHitRate(),
		InPkgBPI: w.InPkgBPI(), OffPkgBPI: w.OffPkgBPI(),
	}
}

// Series is an ordered sequence of snapshots — the time series an
// OnEpoch hook accumulates over a run.
type Series []Snapshot

// Sub returns a-b fieldwise over every monotonically accumulating
// counter — the windowing primitive behind warmup exclusion, Snapshot,
// and epoch series. Labels (Workload, Scheme) are kept from a.
// Scheme-internal counters (Remaps, TagProbes, TagBufferFlushes,
// TLBShootdowns, CounterSamples) window like every other counter: the
// capture path folds the scheme's running totals into each operand via
// FillStats before subtracting.
func Sub(a, b Sim) Sim {
	out := a
	out.Instructions -= b.Instructions
	out.Cycles -= b.Cycles
	out.L1Accesses -= b.L1Accesses
	out.L1Misses -= b.L1Misses
	out.L2Accesses -= b.L2Accesses
	out.L2Misses -= b.L2Misses
	out.LLCAccesses -= b.LLCAccesses
	out.LLCMisses -= b.LLCMisses
	out.LLCEvictions -= b.LLCEvictions
	out.DCHits -= b.DCHits
	out.DCMisses -= b.DCMisses
	out.MissLatSum -= b.MissLatSum
	out.MissLatCount -= b.MissLatCount
	out.Remaps -= b.Remaps
	out.TagProbes -= b.TagProbes
	out.TagBufferFlushes -= b.TagBufferFlushes
	out.TLBShootdowns -= b.TLBShootdowns
	out.CounterSamples -= b.CounterSamples
	out.SWStallCycles -= b.SWStallCycles
	out.Prefetches -= b.Prefetches
	for i := range out.InPkg.Bytes {
		out.InPkg.Bytes[i] -= b.InPkg.Bytes[i]
		out.OffPkg.Bytes[i] -= b.OffPkg.Bytes[i]
	}
	return out
}
