package banshee

import (
	"fmt"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
	"banshee/internal/vm"
)

// Policy selects the replacement policy variant. The non-default
// variants exist for the Fig. 7 ablation.
type Policy uint8

const (
	// FBRSampled is Banshee proper: frequency-based replacement with
	// sampled counter maintenance (Algorithm 1).
	FBRSampled Policy = iota
	// FBRNoSample updates counters on every access (CHOP-like),
	// doubling metadata traffic.
	FBRNoSample
	// LRUReplaceOnMiss replaces the LRU page on every miss with a full
	// page fill (Unison-like but without a footprint cache).
	LRUReplaceOnMiss
	// SetDueling dynamically selects between FBRSampled and
	// LRUReplaceOnMiss via set dueling [30], the extension §5.2 suggests
	// for streaming workloads (lbm) where replace-on-every-miss wins:
	// two small leader groups run each policy unconditionally; follower
	// sets adopt whichever leader group misses less.
	SetDueling
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FBRSampled:
		return "Banshee"
	case FBRNoSample:
		return "Banshee FBR no-sample"
	case LRUReplaceOnMiss:
		return "Banshee LRU"
	case SetDueling:
		return "Banshee Duel"
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// The memory-controller side of Table 3 that no experiment varies:
// four MCs, each with an 8-way tag buffer that triggers the software
// flush once 70% of its slots hold un-flushed remaps.
const (
	numMCs         = 4
	tagBufferWays  = 8
	flushThreshold = 0.7

	// perPTETouchCycles is the flush routine's incremental cost per PTE
	// it updates, on top of the whole routine's PTEUpdateCycles.
	perPTETouchCycles = 30
)

// Config parameterizes a Banshee instance (defaults follow Table 3).
// Each set tracks Ways+1 candidate pages (Fig. 3).
type Config struct {
	CapacityBytes int
	Ways          int     // 4
	PageBytes     int     // 4096, or mem.LargeBytes for §4.3 large pages
	CounterBits   int     // 5
	SamplingCoeff float64 // 0.1 (0.001 for large pages)
	// Threshold overrides the replacement threshold; 0 → the paper's
	// default page_lines × SamplingCoeff / 2.
	Threshold float64
	// Footprint enables the orthogonal footprint-caching extension the
	// paper's related-work section points at: replacements move only
	// the page's predicted footprint (idealized predictor, 4-line
	// granularity, as granted to Unison/TDC) instead of the whole page.
	Footprint        bool
	TagBufferEntries int // 1024 per MC
	Policy           Policy
	Seed             uint64
}

// DefaultConfig returns Table 3's configuration for the given capacity.
func DefaultConfig(capacityBytes int) Config {
	return Config{
		CapacityBytes:    capacityBytes,
		Ways:             4,
		PageBytes:        mem.PageBytes,
		CounterBits:      5,
		SamplingCoeff:    0.1,
		TagBufferEntries: 1024,
	}
}

// LargePageConfig returns the §5.4.1 large-page configuration.
func LargePageConfig(capacityBytes int) Config {
	c := DefaultConfig(capacityBytes)
	c.PageBytes = mem.LargeBytes
	c.SamplingCoeff = 0.001
	return c
}

// Banshee is the scheme instance. Not safe for concurrent use.
type Banshee struct {
	cfg       Config
	md        *metadata
	tbs       [numMCs]*TagBuffer
	rng       *util.RNG
	missRate  *mc.MissRateTracker
	tlbs      []*vm.TLB
	cost      vm.CostModel
	pageShift uint
	lines     int // lines per (configured) page
	threshold float64
	lruTick   uint32
	footprint mc.FootprintTracker // used when cfg.Footprint

	// Set-dueling state (Policy == SetDueling): psel counts which
	// leader group misses more; positive favors always-replace.
	psel int

	// res is the scratch Result reused by every Access (see the
	// ownership note on mc.Result): steady-state accesses allocate
	// nothing once the slices have grown to their working size.
	res mc.Result

	// Counters surfaced via FillStats.
	remaps  uint64
	flushes uint64 // one per flush, which also shoots down every TLB
	probes  uint64
	samples uint64
}

// New builds a Banshee instance bound to the system's TLBs, which its
// software flush shoots down (the software half of the co-design). It
// panics on invalid geometry — configuration is an experiment-setup
// concern.
func New(cfg Config, tlbs []*vm.TLB, cost vm.CostModel) *Banshee {
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("banshee: ways must be positive, got %d", cfg.Ways))
	}
	if cfg.PageBytes != mem.PageBytes && cfg.PageBytes != mem.LargeBytes {
		panic(fmt.Sprintf("banshee: page size %d not supported (4 KB or 2 MB)", cfg.PageBytes))
	}
	if cfg.CounterBits <= 0 {
		panic(fmt.Sprintf("banshee: counter bits must be positive, got %d", cfg.CounterBits))
	}
	if cfg.SamplingCoeff <= 0 || cfg.SamplingCoeff > 1 {
		panic(fmt.Sprintf("banshee: sampling coefficient %v out of (0,1]", cfg.SamplingCoeff))
	}
	nsets := cfg.CapacityBytes / cfg.PageBytes / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("banshee: capacity %d with %d ways × %d B pages gives non-power-of-two set count %d",
			cfg.CapacityBytes, cfg.Ways, cfg.PageBytes, nsets))
	}
	lines := cfg.PageBytes / mem.LineBytes
	b := &Banshee{
		cfg:      cfg,
		md:       newMetadata(nsets, cfg.Ways, cfg.Ways+1, cfg.CounterBits, cfg.Footprint),
		rng:      util.NewRNG(cfg.Seed ^ 0xBA45EE),
		missRate: mc.NewMissRateTracker(),
		tlbs:     tlbs,
		cost:     cost,
		lines:    lines,
	}
	for s := uint(0); 1<<s < cfg.PageBytes; s++ {
		b.pageShift = s + 1
	}
	b.threshold = cfg.Threshold
	derived := b.threshold == 0
	if derived {
		coeff := cfg.SamplingCoeff
		if cfg.Policy == FBRNoSample {
			coeff = 1
		}
		b.threshold = float64(lines) * coeff / 2
	}
	if b.threshold >= float64(b.md.maxCount) {
		if !derived {
			panic(fmt.Sprintf("banshee: threshold %.1f unreachable with %d-bit counters", b.threshold, cfg.CounterBits))
		}
		// The paper pairs the counter width with the sampling
		// coefficient (5 bits suffice at 10%); when a sweep raises the
		// coefficient, widen the counters so the derived threshold
		// stays reachable — the hardware analogue of provisioning
		// counters for the chosen sample rate.
		bits := cfg.CounterBits
		for ; bits < 31 && b.threshold >= float64(uint32(1)<<uint(bits)-1); bits++ {
		}
		b.md.maxCount = 1<<uint(bits) - 1
	}
	for i := range b.tbs {
		b.tbs[i] = NewTagBuffer(cfg.TagBufferEntries, tagBufferWays)
	}
	return b
}

// Name implements mc.Scheme: the policy variant's name, with the
// large-page and footprint variants of the default policy named apart.
func (b *Banshee) Name() string {
	if b.cfg.Policy == FBRSampled {
		switch {
		case b.cfg.PageBytes == mem.LargeBytes:
			return "Banshee 2M"
		case b.cfg.Footprint:
			return "Banshee FP"
		}
	}
	return b.cfg.Policy.String()
}

// pageOf maps an address to this instance's page number.
func (b *Banshee) pageOf(a mem.Addr) uint64 { return uint64(a) >> b.pageShift }

// bufferFor returns the tag buffer of the MC that owns page.
func (b *Banshee) bufferFor(page uint64) *TagBuffer { return b.tbs[page%numMCs] }

// Access implements mc.Scheme.
func (b *Banshee) Access(req mem.Request) mc.Result {
	b.res.Hit = false
	b.res.Ops = b.res.Ops[:0]
	b.res.SW = b.res.SW[:0]
	b.access(req, &b.res)
	return b.res
}

// access is the Access body, appending into the caller-owned result.
func (b *Banshee) access(req mem.Request, res *mc.Result) {
	addr := mem.LineAddr(req.Addr)
	page := b.pageOf(addr)
	tb := b.bufferFor(page)

	// In hardware the mapping comes from the tag buffer, else from the
	// PTE/TLB bits the request carries. A dirty eviction carries none,
	// so on a buffer miss it pays a tag probe in the metadata rows
	// (§3.3), off the critical path. The model reads the way from the
	// metadata, which those copies always equal (package doc).
	if !tb.Lookup(page) && req.Eviction {
		b.probes++
		res.Ops = append(res.Ops, mem.Op{
			Target: mem.InPackage, Addr: addr, Bytes: metaBytes, Class: mem.ClassTag,
		})
		// Park the page in the buffer to spare future probes.
		tb.InsertClean(page)
	}
	setIdx, key := b.md.setIndex(page), b.md.keyOf(page)
	way := b.md.findCached(setIdx, key)

	if req.Eviction {
		b.handleEviction(addr, setIdx, way, res)
		return
	}

	// Demand access: the mapping tells us where the data is — no tag
	// access on the read path at all (Table 1: hit 64 B, miss 64 B).
	hit := way >= 0
	b.missRate.Observe(!hit)
	if hit {
		if b.cfg.Footprint {
			b.md.touched[setIdx*b.md.ways+way].Set(mem.LineInPage(addr))
		}
		res.Hit = true
		res.Ops = append(res.Ops, mem.Op{
			Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes,
			Class: mem.ClassHitData, Stage: 0, Critical: true,
		})
	} else {
		res.Ops = append(res.Ops, mem.Op{
			Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes,
			Class: mem.ClassMissData, Stage: 0, Critical: true,
		})
	}

	// The policies reuse this lookup's set index, key and way (-1 on a
	// miss): nothing above has changed the metadata since.
	switch b.cfg.Policy {
	case LRUReplaceOnMiss:
		b.lruPolicy(page, setIdx, key, way, res)
	case SetDueling:
		b.duelPolicy(page, setIdx, key, way, res)
	default:
		b.fbrPolicy(page, setIdx, key, way, res)
	}
}

// Set-dueling constants: every duelPeriod-th set leads for FBR, the
// next one for always-replace LRU; pselMax bounds the saturating
// selector.
const (
	duelPeriod = 32
	pselMax    = 1024
)

// duelPolicy dispatches to FBR or replace-on-miss LRU per the dueling
// sets [30]: leader sets always run their policy and vote with their
// misses; follower sets adopt the current winner.
func (b *Banshee) duelPolicy(page uint64, setIdx int, key uint64, way int, res *mc.Result) {
	switch setIdx % duelPeriod {
	case 0: // FBR leader: its misses push psel toward LRU
		if way < 0 && b.psel < pselMax {
			b.psel++
		}
		b.fbrPolicy(page, setIdx, key, way, res)
	case 1: // LRU leader: its misses push psel toward FBR
		if way < 0 && b.psel > -pselMax {
			b.psel--
		}
		b.lruPolicy(page, setIdx, key, way, res)
	default: // follower
		if b.psel > 0 {
			b.lruPolicy(page, setIdx, key, way, res)
		} else {
			b.fbrPolicy(page, setIdx, key, way, res)
		}
	}
}

// handleEviction routes an LLC dirty write-back to the page's way in
// set setIdx (way < 0: not cached) and marks the page dirty in the (in-
// controller view of the) metadata.
func (b *Banshee) handleEviction(addr mem.Addr, setIdx, way int, res *mc.Result) {
	if way >= 0 {
		b.md.dirty[setIdx*b.md.ways+way] = true
		res.Hit = true
		res.Ops = append(res.Ops, mem.Op{
			Target: mem.InPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassHitData,
		})
		return
	}
	res.Ops = append(res.Ops, mem.Op{
		Target: mem.OffPackage, Addr: addr, Bytes: mem.LineBytes, Write: true, Class: mem.ClassReplacement,
	})
}

// fbrPolicy is Algorithm 1: sampled counter maintenance and
// bandwidth-aware frequency-based replacement.
func (b *Banshee) fbrPolicy(page uint64, setIdx int, key uint64, way int, res *mc.Result) {
	sampleRate := 1.0
	if b.cfg.Policy == FBRSampled {
		sampleRate = b.missRate.Rate() * b.cfg.SamplingCoeff
	}
	if !b.rng.Bool(sampleRate) {
		return // common case: no metadata access at all
	}
	b.samples++
	pageAddr := mem.Addr(page << b.pageShift)
	// Load the set's metadata (one 32 B burst).
	res.Ops = append(res.Ops, mem.Op{
		Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Class: mem.ClassCounter,
	})
	md := b.md

	if way >= 0 {
		i := setIdx*md.ways + way
		md.counts[i]++
		if md.counts[i] >= md.maxCount {
			md.halve(setIdx)
		}
	} else if ci := md.findCand(setIdx, key); ci >= 0 {
		c := setIdx*md.ncand + ci
		md.candCounts[c]++
		if md.candCounts[c] >= md.maxCount {
			md.halve(setIdx)
		}
		victim, free := md.minCached(setIdx)
		trigger := free
		if !free {
			trigger = float64(md.candCounts[c]) > float64(md.counts[setIdx*md.ways+victim])+b.threshold
		}
		if trigger {
			b.replace(page, setIdx, key, ci, victim, res)
		}
	} else {
		// Page not tracked: probabilistically claim a candidate slot
		// (Algorithm 1 lines 17-23): a free one (its count is 0), else
		// a random one.
		vi := md.findCand(setIdx, 0)
		if vi < 0 {
			vi = b.rng.Intn(md.ncand)
		}
		c := setIdx*md.ncand + vi
		if n := md.candCounts[c]; n == 0 || b.rng.Bool(1.0/float64(n)) {
			md.candKeys[c], md.candCounts[c] = key, 1
		}
	}
	// Store the metadata back (one 32 B burst).
	res.Ops = append(res.Ops, mem.Op{
		Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Write: true, Class: mem.ClassCounter,
	})
}

// replace swaps the candidate at ci into cached way `victim`, generating
// the page-movement traffic and the lazy-coherence bookkeeping.
func (b *Banshee) replace(page uint64, setIdx int, key uint64, ci, victim int, res *mc.Result) {
	b.remaps++
	md := b.md
	c, v := setIdx*md.ncand+ci, setIdx*md.ways+victim
	incomingCount := md.candCounts[c]
	pageAddr := mem.Addr(page << b.pageShift)
	// Incoming page: whole-page transfer plus the 32 B tag write
	// (Table 1: "32B tag + page size"). With the footprint extension
	// only the predicted footprint moves.
	moveBytes := b.cfg.PageBytes
	if b.cfg.Footprint {
		moveBytes = b.footprint.Lines() * mem.LineBytes
	}
	res.Ops = append(res.Ops,
		mem.Op{Target: mem.OffPackage, Addr: pageAddr, Bytes: moveBytes, Class: mem.ClassReplacement},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: moveBytes, Write: true, Class: mem.ClassReplacement},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Write: true, Class: mem.ClassTag},
	)
	if vk := md.keys[v]; vk != 0 {
		victimPage := md.pageOf(setIdx, vk)
		victimAddr := mem.Addr(victimPage << b.pageShift)
		if b.cfg.Footprint {
			b.footprint.Record(md.touched[v].Count())
		}
		if md.dirty[v] {
			wb := b.cfg.PageBytes
			if b.cfg.Footprint {
				wb = md.touched[v].Count() * mem.LineBytes
				if wb == 0 {
					wb = mem.LineBytes
				}
			}
			res.Ops = append(res.Ops,
				mem.Op{Target: mem.InPackage, Addr: victimAddr, Bytes: wb, Class: mem.ClassReplacement},
				mem.Op{Target: mem.OffPackage, Addr: victimAddr, Bytes: wb, Write: true, Class: mem.ClassReplacement},
			)
		}
		// The victim becomes a candidate in the slot the incoming page
		// vacates, keeping its counter so it must out-score the new
		// resident by the threshold to come back (anti-thrash, §4.2.2).
		md.candKeys[c], md.candCounts[c] = vk, md.counts[v]
		b.noteRemap(victimPage, res)
	} else {
		md.candKeys[c], md.candCounts[c] = 0, 0
	}
	md.fill(v, key, incomingCount)
	b.noteRemap(page, res)
}

// noteRemap records a mapping change in the right tag buffer and, if a
// buffer crossed its fill threshold, runs the software PTE/TLB
// synchronization routine (§3.4).
func (b *Banshee) noteRemap(page uint64, res *mc.Result) {
	tb := b.bufferFor(page)
	if !tb.InsertRemap(page) {
		// Set exhausted by pinned remaps: flush immediately, then the
		// insert must succeed.
		b.flush(res)
		if !tb.InsertRemap(page) {
			panic("banshee: tag buffer insert failed after flush")
		}
		return
	}
	if tb.RemapFill() >= flushThreshold {
		b.flush(res)
	}
}

// flush is the software routine: drain every MC's tag buffer, update
// each remapped page's PTE, and shoot down all TLBs. The frame
// allocator is the identity and a Banshee page is a page-table page
// (the run's page size is Banshee's), so the routine touches one PTE
// per drained remap. The model stores no PTE bits, so it charges the
// cost alone; the caller's cores pay it through mc.SWCost.
func (b *Banshee) flush(res *mc.Result) {
	b.flushes++
	var ptes int
	for _, tb := range b.tbs {
		ptes += tb.DrainRemaps()
	}
	for _, t := range b.tlbs {
		t.Flush()
	}
	res.SW = append(res.SW, mc.SWCost{
		InitiatorCycles: b.cost.PTEUpdateCycles +
			uint64(ptes)*perPTETouchCycles +
			b.cost.ShootdownInitiator,
		AllCoresCycles: b.cost.ShootdownSlave,
	})
}

// lruPolicy is the Fig. 7 "Banshee LRU" ablation: page-granularity LRU
// with replacement on every miss and whole-page fills. Remaps still go
// through the tag buffers and the PTE-update flush; LRU state updates
// cost one metadata read+write per access, like Unison's tag update.
func (b *Banshee) lruPolicy(page uint64, setIdx int, key uint64, way int, res *mc.Result) {
	b.lruTick++
	pageAddr := mem.Addr(page << b.pageShift)
	res.Ops = append(res.Ops,
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Class: mem.ClassTag},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Write: true, Class: mem.ClassTag},
	)
	md := b.md
	base := setIdx * md.ways
	if way >= 0 {
		md.counts[base+way] = b.lruTick // count doubles as LRU stamp here
		return
	}
	// Miss: evict the LRU way (the first free one, else the oldest
	// stamp), fill the whole page.
	victim, _ := md.minCached(setIdx)
	b.remaps++
	res.Ops = append(res.Ops,
		mem.Op{Target: mem.OffPackage, Addr: pageAddr, Bytes: b.cfg.PageBytes, Class: mem.ClassReplacement},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: b.cfg.PageBytes, Write: true, Class: mem.ClassReplacement},
	)
	v := base + victim
	if vk := md.keys[v]; vk != 0 {
		victimPage := md.pageOf(setIdx, vk)
		if md.dirty[v] {
			victimAddr := mem.Addr(victimPage << b.pageShift)
			res.Ops = append(res.Ops,
				mem.Op{Target: mem.InPackage, Addr: victimAddr, Bytes: b.cfg.PageBytes, Class: mem.ClassReplacement},
				mem.Op{Target: mem.OffPackage, Addr: victimAddr, Bytes: b.cfg.PageBytes, Write: true, Class: mem.ClassReplacement},
			)
		}
		b.noteRemap(victimPage, res)
	}
	md.fill(v, key, b.lruTick)
	b.noteRemap(page, res)
}

// FillStats implements mc.Scheme.
func (b *Banshee) FillStats(s *stats.Sim) {
	s.Remaps += b.remaps
	s.TagProbes += b.probes
	s.TagBufferFlushes += b.flushes
	s.TLBShootdowns += b.flushes
	s.CounterSamples += b.samples
}

// Resident reports whether page (a configured-granularity page number)
// is currently cached, and in which way (tests).
func (b *Banshee) Resident(page uint64) (bool, int) {
	w := b.md.findCached(b.md.setIndex(page), b.md.keyOf(page))
	return w >= 0, w
}
