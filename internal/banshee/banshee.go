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
	pt        *vm.PageTable
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
	remaps     uint64
	flushes    uint64
	probes     uint64
	samples    uint64
	shootdowns uint64
	ptesSynced uint64
}

// New builds a Banshee instance bound to the system's page table and
// TLBs (the software half of the co-design). It panics on invalid
// geometry — configuration is an experiment-setup concern.
func New(cfg Config, pt *vm.PageTable, tlbs []*vm.TLB, cost vm.CostModel) *Banshee {
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
		md:       newMetadata(nsets, cfg.Ways, cfg.Ways+1, cfg.CounterBits),
		rng:      util.NewRNG(cfg.Seed ^ 0xBA45EE),
		missRate: mc.NewMissRateTracker(),
		pt:       pt,
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
		b.md = newMetadata(nsets, cfg.Ways, cfg.Ways+1, bits)
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

	// Resolve the mapping: tag buffer overrides the request-carried
	// PTE/TLB bits; dirty evictions may carry nothing and need a probe.
	mapping, tbHit := tb.Lookup(page)
	if !tbHit {
		mapping = req.Mapping
	}
	if !mapping.Known {
		// Tag probe in the DRAM cache's metadata rows (§3.3). Off the
		// critical path: only evictions lack mappings.
		b.probes++
		res.Ops = append(res.Ops, mem.Op{
			Target: mem.InPackage, Addr: addr, Bytes: metaBytes, Class: mem.ClassTag,
		})
		way := b.md.set(page).findCached(b.md.tagOf(page))
		mapping = mem.Mapping{Known: true, Cached: way >= 0, Way: uint8(max(way, 0))}
		// Park the clean mapping in the buffer to spare future probes.
		tb.InsertClean(page, mapping.Cached, mapping.Way)
	}

	if req.Eviction {
		b.handleEviction(addr, page, mapping, res)
		return
	}

	// Demand access: the mapping tells us where the data is — no tag
	// access on the read path at all (Table 1: hit 64 B, miss 64 B).
	hit := mapping.Cached
	b.missRate.Observe(!hit)
	if hit {
		if b.cfg.Footprint {
			if w := b.md.set(page).findCached(b.md.tagOf(page)); w >= 0 {
				b.md.set(page).cached[w].touched.Set(mem.LineInPage(addr))
			}
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

	switch b.cfg.Policy {
	case LRUReplaceOnMiss:
		b.lruPolicy(page, hit, res)
	case SetDueling:
		b.duelPolicy(page, hit, res)
	default:
		b.fbrPolicy(page, hit, res)
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
func (b *Banshee) duelPolicy(page uint64, hit bool, res *mc.Result) {
	setIdx := b.md.setIndex(page)
	switch setIdx % duelPeriod {
	case 0: // FBR leader: its misses push psel toward LRU
		if !hit && b.psel < pselMax {
			b.psel++
		}
		b.fbrPolicy(page, hit, res)
	case 1: // LRU leader: its misses push psel toward FBR
		if !hit && b.psel > -pselMax {
			b.psel--
		}
		b.lruPolicy(page, hit, res)
	default: // follower
		if b.psel > 0 {
			b.lruPolicy(page, hit, res)
		} else {
			b.fbrPolicy(page, hit, res)
		}
	}
}

// handleEviction routes an LLC dirty write-back and marks the page
// dirty in the (in-controller view of the) metadata.
func (b *Banshee) handleEviction(addr mem.Addr, page uint64, mapping mem.Mapping, res *mc.Result) {
	if mapping.Cached {
		if w := b.md.set(page).findCached(b.md.tagOf(page)); w >= 0 {
			b.md.set(page).cached[w].dirty = true
		}
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
func (b *Banshee) fbrPolicy(page uint64, hit bool, res *mc.Result) {
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
	set := b.md.set(page)
	tag := b.md.tagOf(page)

	if w := set.findCached(tag); w >= 0 {
		set.cached[w].count++
		if set.cached[w].count >= b.md.maxCount {
			set.halve()
		}
	} else if ci := set.findCand(tag); ci >= 0 {
		set.cand[ci].count++
		if set.cand[ci].count >= b.md.maxCount {
			set.halve()
		}
		victim, free := set.minCached()
		trigger := free
		if !free {
			trigger = float64(set.cand[ci].count) > float64(set.cached[victim].count)+b.threshold
		}
		if trigger {
			b.replace(page, set, ci, victim, res)
		}
	} else {
		// Page not tracked: probabilistically claim a candidate slot
		// (Algorithm 1 lines 17-23).
		vi := -1
		for i := range set.cand {
			if !set.cand[i].valid {
				vi = i
				break
			}
		}
		if vi < 0 {
			vi = b.rng.Intn(len(set.cand))
		}
		v := &set.cand[vi]
		if !v.valid || v.count == 0 || b.rng.Bool(1.0/float64(v.count)) {
			*v = candEntry{tag: tag, count: 1, valid: true}
		}
	}
	// Store the metadata back (one 32 B burst).
	res.Ops = append(res.Ops, mem.Op{
		Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Write: true, Class: mem.ClassCounter,
	})
}

// replace swaps the candidate at ci into cached way `victim`, generating
// the page-movement traffic and the lazy-coherence bookkeeping.
func (b *Banshee) replace(page uint64, set *metaSet, ci, victim int, res *mc.Result) {
	b.remaps++
	incomingCount := set.cand[ci].count
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
	v := set.cached[victim]
	setIdx := b.md.setIndex(page)
	if v.valid {
		victimPage := b.md.pageOf(setIdx, v.tag)
		victimAddr := mem.Addr(victimPage << b.pageShift)
		if b.cfg.Footprint {
			b.footprint.Record(v.touched.Count())
		}
		if v.dirty {
			wb := b.cfg.PageBytes
			if b.cfg.Footprint {
				wb = v.touched.Count() * mem.LineBytes
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
		set.cand[ci] = candEntry{tag: v.tag, count: v.count, valid: true}
		b.noteRemap(victimPage, false, 0, res)
	} else {
		set.cand[ci] = candEntry{}
	}
	set.cached[victim] = cachedEntry{tag: b.md.tagOf(page), count: incomingCount, valid: true}
	b.noteRemap(page, true, uint8(victim), res)
}

// noteRemap records a mapping change in the right tag buffer and, if a
// buffer crossed its fill threshold, runs the software PTE/TLB
// synchronization routine (§3.4).
func (b *Banshee) noteRemap(page uint64, cached bool, way uint8, res *mc.Result) {
	tb := b.bufferFor(page)
	if !tb.InsertRemap(page, cached, way) {
		// Set exhausted by pinned remaps: flush immediately, then the
		// insert must succeed.
		b.flush(res)
		if !tb.InsertRemap(page, cached, way) {
			panic("banshee: tag buffer insert failed after flush")
		}
		return
	}
	if tb.RemapFill() >= flushThreshold {
		b.flush(res)
	}
}

// flush is the software routine: drain every MC's tag buffer, apply the
// mappings to each page's PTE (the frame allocator is the identity, so
// the OS reverse map yields exactly that one, and a Banshee page is a
// page-table page: the run's page size is Banshee's), and shoot down
// all TLBs. The caller's cores pay the cost through mc.SWCost.
func (b *Banshee) flush(res *mc.Result) {
	b.flushes++
	var ptes int
	for _, tb := range b.tbs {
		for _, r := range tb.DrainRemaps() {
			ptes += b.pt.SetCached(r.Page, r.Cached, r.Way)
		}
	}
	for _, t := range b.tlbs {
		t.Flush()
	}
	b.shootdowns++
	b.ptesSynced += uint64(ptes)
	res.SW = append(res.SW, mc.SWCost{
		InitiatorCycles: b.cost.PTEUpdateCycles +
			uint64(ptes)*perPTETouchCycles +
			b.cost.ShootdownInitiator,
		AllCoresCycles: b.cost.ShootdownSlave,
	})
}

// lruPolicy is the Fig. 7 "Banshee LRU" ablation: page-granularity LRU
// with replacement on every miss and whole-page fills. Mapping still
// lives in PTEs/TLBs; LRU state updates cost one metadata read+write
// per access, like Unison's tag update.
func (b *Banshee) lruPolicy(page uint64, hit bool, res *mc.Result) {
	b.lruTick++
	pageAddr := mem.Addr(page << b.pageShift)
	res.Ops = append(res.Ops,
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Class: mem.ClassTag},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: metaBytes, Write: true, Class: mem.ClassTag},
	)
	set := b.md.set(page)
	tag := b.md.tagOf(page)
	if w := set.findCached(tag); w >= 0 {
		set.cached[w].count = b.lruTick // count doubles as LRU stamp here
		return
	}
	// Miss: evict the LRU way, fill the whole page.
	victim := 0
	for i := range set.cached {
		if !set.cached[i].valid {
			victim = i
			break
		}
		if set.cached[victim].valid && set.cached[i].count < set.cached[victim].count {
			victim = i
		}
	}
	b.remaps++
	res.Ops = append(res.Ops,
		mem.Op{Target: mem.OffPackage, Addr: pageAddr, Bytes: b.cfg.PageBytes, Class: mem.ClassReplacement},
		mem.Op{Target: mem.InPackage, Addr: pageAddr, Bytes: b.cfg.PageBytes, Write: true, Class: mem.ClassReplacement},
	)
	v := set.cached[victim]
	if v.valid {
		victimPage := b.md.pageOf(b.md.setIndex(page), v.tag)
		if v.dirty {
			victimAddr := mem.Addr(victimPage << b.pageShift)
			res.Ops = append(res.Ops,
				mem.Op{Target: mem.InPackage, Addr: victimAddr, Bytes: b.cfg.PageBytes, Class: mem.ClassReplacement},
				mem.Op{Target: mem.OffPackage, Addr: victimAddr, Bytes: b.cfg.PageBytes, Write: true, Class: mem.ClassReplacement},
			)
		}
		b.noteRemap(victimPage, false, 0, res)
	}
	set.cached[victim] = cachedEntry{tag: tag, count: b.lruTick, valid: true}
	b.noteRemap(page, true, uint8(victim), res)
}

// FillStats implements mc.Scheme.
func (b *Banshee) FillStats(s *stats.Sim) {
	s.Remaps += b.remaps
	s.TagProbes += b.probes
	s.TagBufferFlushes += b.flushes
	s.TLBShootdowns += b.shootdowns
	s.CounterSamples += b.samples
}

// Resident reports whether page (a configured-granularity page number)
// is currently cached, and in which way (tests).
func (b *Banshee) Resident(page uint64) (bool, int) {
	w := b.md.set(page).findCached(b.md.tagOf(page))
	return w >= 0, w
}
