package sim

import (
	"context"
	"fmt"
	"io"
	"math"

	"banshee/internal/cache"
	"banshee/internal/dram"
	"banshee/internal/mem"
	"banshee/internal/registry"
	"banshee/internal/stats"
	"banshee/internal/util"
	"banshee/internal/vm"
	"banshee/internal/workload"
)

// Front end and lanes (DESIGN.md §12). Every run is one or more lanes
// over a front-end stream. The stream (gangStream) owns the workload
// source, the page table, and each core's L1/L2/TLB: it simulates each
// core's events up to the L2 boundary and records their back-end-
// visible residue — gap, hit/miss bits, the index of the core's
// previous lookup of the page, the L3 fills the L2 victims produce,
// and the demand address. A lane is a System: it replays the residue
// through its own back end (L3, prefetcher, scheme, TLB shootdowns,
// DRAM timing, MSHR/dependence stalls, and the event-ordered core
// scheduler). A width-1 Gang is one lane over a stream of its own; a
// Gang runs N lanes of any schemes over one shared stream, paying the
// front end once. Every lane's statistics are byte-identical to the
// same config run alone, because that run is the same lane over a
// stream of its own. The stream's TLBs are never flushed (vm.TLB
// derives a lane's shootdowns from the recorded lookup index), and it
// generates an event when the first lane needs it.

// Per-event flag bits recorded by the front end. An event carries a
// residual record iff any feHasRes bit is set.
const (
	feTLBMiss = 1 << iota // translation missed the never-flushed TLB (page-walk cost)
	feL1Miss              // missed L1 → L2 accessed
	feL2Miss              // missed L2 → LLC accessed
	feWrite               // the demand access is a write
	feFill0               // L1-evict cascade produced an L3 fill (fill[0])
	feFill1               // the L2 victim produced an L3 fill (fill[1])
	feObserve             // the lane's prefetcher observes this L1 miss

	feHasRes = feFill0 | feFill1 | feL2Miss | feObserve
)

// pageWalkCycles is the core-clock penalty of a TLB miss, for 4 KB and
// 2 MB pages alike.
const pageWalkCycles = 100

// resRec is the sparse per-event residue: the demand address and the
// addresses of up to two dirty lines the front end pushed out of L2,
// which the lane fills into its own L3 in order (fill[0] from the
// L1-evict cascade through l2.Fill, then — only on an L2 miss —
// fill[1] from the L2 victim).
type resRec struct {
	addr mem.Addr
	fill [2]mem.Addr
}

// feCore is one core's front end: its private L1/L2/TLB plus the
// recorded event stream in SoA form (gaps, flags and TLB-hit prevs
// dense, residues sparse). base/resBase are the global indices of
// element 0 — gen drops the prefix every lane has consumed before a
// buffer would grow, so memory stays bounded by lane skew, not run
// length.
type feCore struct {
	l1, l2 *cache.Cache
	tlb    *vm.TLB

	gaps    []uint32
	flags   []uint8
	prevs   []uint64
	res     []resRec
	base    uint64
	resBase uint64
}

// feBufEvents is each core's starting buffer capacity, carved from one
// allocation per buffer: a lane that never batches never outgrows it.
const feBufEvents = 8

// gangStream is the front end: one workload source, one page table,
// and one feCore per simulated core, generating each core's event
// residue when the first lane over it needs it.
type gangStream struct {
	src   workload.Source
	pt    *vm.PageTable
	size  mem.PageSize // the run's page size (Config.LargePages; Page4K is the zero value)
	fe    []feCore
	lanes []*System
	// observe records every L1 miss for the lanes' prefetchers
	// (PrefetchDegree is part of GangKey).
	observe bool

	closed bool
}

// openStream opens base's workload and builds the front end over it;
// base.Cores == 0 adopts the source's own core count (recorded traces
// carry theirs).
func openStream(base Config) (*gangStream, error) {
	src, err := workload.Open(base.Workload, workload.Config{
		Cores: base.Cores, Seed: base.workloadSeed(), Scale: base.Scale, Intensity: base.Intensity,
	})
	if err != nil {
		return nil, err
	}
	cores := base.Cores
	if cores == 0 {
		cores = src.Cores()
	}
	pt := vm.NewPageTable()
	pt.DefaultLarge = base.LargePages
	g := &gangStream{
		src: src, pt: pt, fe: make([]feCore, cores), observe: base.PrefetchDegree > 0,
	}
	if base.LargePages {
		g.size = mem.Page2M
	}
	gaps := make([]uint32, cores*feBufEvents)
	flags := make([]uint8, cores*feBufEvents)
	prevs := make([]uint64, cores*feBufEvents)
	res := make([]resRec, cores*feBufEvents)
	for i := 0; i < cores; i++ {
		f := &g.fe[i]
		lo, hi := i*feBufEvents, (i+1)*feBufEvents
		f.gaps, f.flags, f.prevs, f.res = gaps[lo:lo:hi], flags[lo:lo:hi], prevs[lo:lo:hi], res[lo:lo:hi]
		f.l1 = cache.New(cache.Config{
			Name: fmt.Sprintf("L1d-%d", i), SizeBytes: base.L1Bytes, Ways: base.L1Ways,
			LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: base.Seed + uint64(i),
		})
		f.l2 = cache.New(cache.Config{
			Name: fmt.Sprintf("L2-%d", i), SizeBytes: base.L2Bytes, Ways: base.L2Ways,
			LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: base.Seed + uint64(i),
		})
		f.tlb = vm.NewTLB(base.TLBEntries)
	}
	return g, nil
}

// gen simulates one more front-end event for core f, appending its
// residue to the stream: translation through the never-flushed TLB
// (whose lookup index is the event's index), then the L1 access, the
// L1 victim's fill into L2, and the L2 access. Every line carries the
// run's page size as its meta (§4.3). The scratch-eviction contract
// holds: l2.Fill's eviction is copied out before l2.Access reuses the
// scratch slot. event and batchShared call it when a lane's cursor
// reaches the end of the stream.
func (g *gangStream) gen(f *feCore, coreID int) {
	ev := g.src.Next(coreID)
	if uint64(ev.Gap) > math.MaxUint32 {
		panic(fmt.Sprintf("sim: front end: event gap %d overflows the stream encoding", ev.Gap))
	}
	var flags uint8
	hit, prev := f.tlb.Lookup(ev.Addr, g.pt)
	if !hit {
		flags |= feTLBMiss
	}
	meta := uint8(g.size)
	if ev.Write {
		flags |= feWrite
	}
	r := resRec{addr: ev.Addr}
	if hit, ev1 := f.l1.Access(ev.Addr, ev.Write, meta); !hit {
		flags |= feL1Miss
		if g.observe {
			flags |= feObserve
		}
		if ev1 != nil {
			if evf := f.l2.Fill(ev1.Addr, true, ev1.Meta); evf != nil {
				flags |= feFill0
				r.fill[0] = evf.Addr
			}
		}
		if hit2, ev2 := f.l2.Access(ev.Addr, false, meta); !hit2 {
			flags |= feL2Miss
			if ev2 != nil {
				flags |= feFill1
				r.fill[1] = ev2.Addr
			}
		}
	}
	if len(f.gaps) == cap(f.gaps) {
		g.compact(f, coreID)
	}
	f.gaps = append(f.gaps, uint32(ev.Gap))
	f.flags = append(f.flags, flags)
	f.prevs = append(f.prevs, prev)
	if flags&feHasRes != 0 {
		f.res = append(f.res, r)
	}
}

// compact drops the prefix of core ci's stream that every lane has
// consumed, once it is at least as long as what remains. gen calls it
// before the dense buffers would grow, and checks the residues, which
// never outnumber their events, at the same time. Each copy moves no
// more elements than it drops, so compaction costs amortized O(1) per
// event, and memory stays proportional to lane skew (bounded by the
// step quantum), not run length.
func (g *gangStream) compact(f *feCore, ci int) {
	minEv, minRes := ^uint64(0), ^uint64(0)
	for _, l := range g.lanes {
		c := l.cores[ci]
		minEv = min(minEv, c.evIdx)
		minRes = min(minRes, c.resIdx)
	}
	if k := minEv - f.base; k > 0 && 2*k >= uint64(len(f.gaps)) {
		f.gaps = f.gaps[:copy(f.gaps, f.gaps[k:])]
		f.flags = f.flags[:copy(f.flags, f.flags[k:])]
		f.prevs = f.prevs[:copy(f.prevs, f.prevs[k:])]
		f.base = minEv
	}
	if k := minRes - f.resBase; k > 0 && 2*k >= uint64(len(f.res)) {
		f.res = f.res[:copy(f.res, f.res[k:])]
		f.resBase = minRes
	}
}

// event returns core c's event at its cursor, generating it first if
// no lane has reached it yet. prev is meaningful on a TLB hit only; r
// is non-nil iff the event carries a residual record (feHasRes).
func (g *gangStream) event(c *core) (gap uint32, flags uint8, prev uint64, r *resRec) {
	f := &g.fe[c.id]
	if c.evIdx-f.base == uint64(len(f.gaps)) {
		g.gen(f, c.id)
	}
	i := c.evIdx - f.base
	gap, flags, prev = f.gaps[i], f.flags[i], f.prevs[i]
	if flags&feHasRes != 0 {
		r = &f.res[c.resIdx-f.resBase]
	}
	return gap, flags, prev, r
}

// release closes the source once every lane over the stream has let
// go of it.
func (g *gangStream) release() {
	for _, l := range g.lanes {
		if !l.closed {
			return
		}
	}
	g.close()
}

// close releases the source; idempotent.
func (g *gangStream) close() {
	if g.closed {
		return
	}
	g.closed = true
	if c, ok := g.src.(io.Closer); ok {
		c.Close()
	}
}

// stepShared advances core c by one event: it replays the recorded
// front-end residue through this lane's back end — retirement and
// clock arithmetic, the page-walk charge (the stream's TLB missed, or
// this lane shot the TLBs down since the page's previous lookup),
// counter increments, the L3 fill of the L1 victim's cascade, the
// prefetcher's observation of the L1 miss, the L3 fill of the L2
// victim, the LLC access, and the miss path with MSHR and
// dependence-stall behavior (the lane's own RNG draws in its own miss
// order). SRAM hit latencies are folded into the core model (the
// out-of-order window hides them); only LLC misses are timed.
func (s *System) stepShared(c *core) {
	gap, flags, prev, r := s.stream.event(c)
	c.evIdx++
	// Non-memory instructions retire at IssueWidth.
	c.fract += int(gap)
	c.time += uint64(c.fract / s.cfg.IssueWidth)
	c.fract %= s.cfg.IssueWidth
	c.retired += uint64(gap) + 1

	if flags&feTLBMiss != 0 || prev < c.shotAt {
		c.time += pageWalkCycles
	}
	s.st.L1Accesses++
	if flags&feL1Miss == 0 {
		return
	}
	s.st.L1Misses++
	s.st.L2Accesses++
	if r == nil {
		return
	}
	c.resIdx++
	if flags&feFill0 != 0 {
		s.fillL3(c, r.fill[0])
	}
	if flags&feObserve != 0 {
		if pf := c.prefetch.Observe(r.addr, c.time); len(pf) > 0 {
			s.issuePrefetches(c, pf)
		}
	}
	if flags&feL2Miss == 0 {
		return
	}
	s.st.L2Misses++
	if flags&feFill1 != 0 {
		s.fillL3(c, r.fill[1])
	}
	s.st.LLCAccesses++
	if hit3, ev3 := s.l3.Access(r.addr, false, uint8(s.pageSize)); !hit3 {
		if ev3 != nil {
			s.evictToMC(c, ev3)
		}
		s.llcMiss(c, r.addr, flags&feWrite != 0)
	}
}

// batchShared replays, in one aggregate update, the run of already-
// generated events at c's cursor that touch no lane state beyond
// counters and the core clock: events with no residual record (L1
// hits, and L2 hits whose L1-evict cascade produced no L3 fill and
// that no prefetcher observes).
//
// Identity argument: for these events the per-event updates are
// exactly associative — the clock advance over k events with gap sum G
// is (fract+G) div/mod IssueWidth plus one pageWalkCycles charge per
// TLB miss, retirement is G+k, and the counter bumps are sums — so the
// aggregate equals the event-by-event replay bit for bit. Moving c
// past other cores' events is unobservable only if nothing another
// core does can reach c in between. Step applies an all-core stall
// (mc.SWCost.AllCoresCycles) lazily, when it next pops the core, so a
// stall charged while c is batched past it would land at a different
// heap position, and so would a TLB shootdown. Step therefore batches
// only in lanes that do neither (System.batch), where a TLB miss is
// the stream's. Step's other mid-run global sequence points are the
// warmup mark and epoch samples, so batching is disabled until the
// warmup mark has been captured (or WarmupFrac is 0, when no mark is
// ever taken) and whenever an epoch callback is installed. The scan
// generates events as it reaches the end of the stream and stops at
// the first event with a residual record or at the per-core budget,
// exactly where Step would stop scheduling the core — so every event
// it generates is consumed.
func (s *System) batchShared(c *core) {
	if s.epochFn != nil || (!s.warmed && s.warmTarget > 0) {
		return
	}
	f := &s.stream.fe[c.id]
	i := c.evIdx - f.base
	n := uint64(len(f.gaps))
	var k, l1m, walks, gapSum uint64
	for c.retired+gapSum+k < s.cfg.InstrPerCore {
		if i == n {
			// gen may compact the buffers; re-derive the scan position.
			s.stream.gen(f, c.id)
			i, n = c.evIdx+k-f.base, uint64(len(f.gaps))
		}
		fl := f.flags[i]
		if fl&feHasRes != 0 {
			break
		}
		gapSum += uint64(f.gaps[i])
		k++
		if fl&feTLBMiss != 0 {
			walks++
		}
		if fl&feL1Miss != 0 {
			l1m++
		}
		i++
	}
	if k == 0 {
		return
	}
	c.evIdx += k
	total := uint64(c.fract) + gapSum
	iw := uint64(s.cfg.IssueWidth)
	c.time += total/iw + walks*pageWalkCycles
	c.fract = int(total % iw)
	c.retired += gapSum + k
	s.st.L1Accesses += k
	s.st.L1Misses += l1m
	s.st.L2Accesses += l1m
}

// GangKey is the shared-front-end shape of cfg: two configs can run as
// lanes of the same gang iff their keys are equal. The key covers
// everything the shared front end depends on — the workload stream
// identity (name, cores, effective workload seed, scale, intensity),
// the VM substrate (large pages), the L1/L2/TLB geometry, the per-core
// instruction budget (which fixes how many events each core consumes),
// and the prefetch degree (which decides whether the stream records
// every L1 miss). Everything back-end — the scheme and its modifiers,
// Seed, L3 geometry, DRAM knobs, CPUMHz, IssueWidth, MSHRs,
// DepStallFrac, WarmupFrac — may vary per lane.
func GangKey(cfg Config) string {
	return fmt.Sprintf("%s|c%d|ws%d|sc%g|in%g|lp%t|l1:%d/%d|l2:%d/%d|tlb%d|n%d|pf%d",
		cfg.Workload, cfg.Cores, cfg.workloadSeed(), cfg.Scale, cfg.Intensity,
		cfg.LargePages, cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways,
		cfg.TLBEntries, cfg.InstrPerCore, cfg.PrefetchDegree)
}

// Gang is a set of simulations (lanes) advancing in lockstep over one
// shared front-end stream. Each lane is a full System producing
// statistics byte-identical to the same config run alone. Like
// Session, a Gang is a single-goroutine object.
type Gang struct {
	gs     *gangStream
	runErr error
	done   bool
}

// NewGang assembles one lane per config. A single config runs alone
// over a stream of its own, whatever its scheme — that is how every
// stand-alone run (Session, the engine's singles) is built. Two or more
// configs must all have lane 0's GangKey; a multi-seed gang must
// therefore set WorkloadSeed so the lanes share a stream (NewGangSeeds
// does this for you).
func NewGang(cfgs []Config) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one lane config")
	}
	for i := range cfgs {
		if err := cfgs[i].validate(); err != nil {
			return nil, err
		}
	}
	if len(cfgs) > 1 {
		key := GangKey(cfgs[0])
		for i := range cfgs {
			if k := GangKey(cfgs[i]); k != key {
				return nil, fmt.Errorf(
					"sim: gang lane %d front-end shape %q differs from lane 0 %q (multi-seed gangs must share Config.WorkloadSeed)",
					i, k, key)
			}
		}
	}
	gs, err := openStream(cfgs[0])
	if err != nil {
		return nil, err
	}
	for i := range cfgs {
		if _, err := newGangLane(cfgs[i], gs); err != nil {
			// The source may hold a trace file open; don't leak it on a
			// failed assembly (success hands ownership to the lanes).
			gs.close()
			if len(cfgs) > 1 {
				err = fmt.Errorf("sim: gang lane %d: %w", i, err)
			}
			return nil, err
		}
	}
	return &Gang{gs: gs}, nil
}

// NewGangSeeds is the common case: one config replicated across seeds,
// run as a gang. The scheme display name resolves exactly as
// NewSession's does. When cfg.WorkloadSeed is zero it is pinned to
// cfg.Seed (or the first seed) so all lanes share the stream — set it
// explicitly to choose the stream independently of the seeds.
func NewGangSeeds(cfg Config, workloadName, scheme string, seeds []uint64) (*Gang, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one seed")
	}
	spec, err := ResolveScheme(scheme, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.Workload = workloadName
	cfg.Scheme = spec
	if cfg.WorkloadSeed == 0 {
		if cfg.Seed != 0 {
			cfg.WorkloadSeed = cfg.Seed
		} else {
			cfg.WorkloadSeed = seeds[0]
		}
	}
	cfgs := make([]Config, len(seeds))
	for i, sd := range seeds {
		c := cfg
		c.Seed = sd
		cfgs[i] = c
	}
	return NewGang(cfgs)
}

// newGangLane assembles one lane over gs — the L3 and everything below
// it, plus the per-core scheduling state — and registers it with the
// stream.
func newGangLane(cfg Config, gs *gangStream) (*System, error) {
	cfg.Cores = len(gs.fe)
	s := &System{
		cfg:      cfg,
		stream:   gs,
		pageSize: gs.size,
		rng:      util.NewRNG(cfg.Seed ^ 0x51A1),
		batch:    registry.Batchable(cfg.Scheme),
	}
	s.l3 = cache.New(cache.Config{
		Name: "L3", SizeBytes: cfg.L3Bytes, Ways: cfg.L3Ways,
		LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed,
	})
	for i := range cfg.Cores {
		c := &core{id: i}
		if cfg.PrefetchDegree > 0 {
			c.prefetch = NewPrefetcher(cfg.PrefetchDegree)
		}
		s.cores = append(s.cores, c)
	}
	scheme, err := buildScheme(cfg)
	if err != nil {
		return nil, err
	}
	s.scheme = scheme
	inCfg, offCfg := dramConfigs(cfg)
	s.inPkg = dram.New(inCfg)
	s.offPkg = dram.New(offCfg)
	s.st.Workload = cfg.Workload
	s.st.Scheme = scheme.Name()
	s.totalBudget = cfg.InstrPerCore * uint64(len(s.cores))
	s.warmTarget = uint64(float64(float64(s.totalBudget) * cfg.WarmupFrac)) // rounded: no FMA
	// Replayed trace files latch decode errors and running out instead
	// of panicking mid-run; bind that surface once so Step can poll it
	// without per-call type assertions. Every lane over a shared stream
	// binds the same surface, so a corrupt or exhausted stream fails
	// all lanes with the error a stand-alone run would report.
	if e, ok := gs.src.(interface{ Err() error }); ok {
		s.srcErr = e.Err
	}
	gs.lanes = append(gs.lanes, s)
	return s, nil
}

// Width returns the number of lanes.
func (g *Gang) Width() int { return len(g.gs.lanes) }

// Lane returns lane i's system: its progress, snapshot and MSHR
// stalls. Per-lane observers attach through Observe.
func (g *Gang) Lane(i int) *System { return g.gs.lanes[i] }

// Step advances every unfinished lane by at least n retired
// instructions in lockstep. done reports all lanes complete. Errors (a
// failed shared stream, a cancelled Run) are terminal for the whole
// gang.
func (g *Gang) Step(n uint64) (done bool, err error) {
	if g.runErr != nil {
		return false, g.runErr
	}
	if g.done {
		return true, nil
	}
	all := true
	for _, l := range g.gs.lanes {
		laneDone, err := l.Step(n)
		if err != nil {
			g.fail(err)
			return false, g.runErr
		}
		if !laneDone {
			all = false
		}
	}
	g.done = all
	return all, nil
}

// fail terminates the gang: every still-running lane fails with err,
// which releases the shared source.
func (g *Gang) fail(err error) {
	if g.runErr == nil {
		g.runErr = err
	}
	for _, l := range g.gs.lanes {
		if !l.finished {
			l.fail(err)
		}
	}
}

// Run drives all lanes to completion under ctx and returns one final
// stats.Sim per lane, in lane order — the one cancel/step loop every
// run goes through (a Session is a width-1 gang). On cancellation the
// gang stops at the next step boundary, releases its resources, and
// returns the partial per-lane windows together with an error wrapping
// ctx.Err(); a terminal run error likewise comes with the partial
// windows.
func (g *Gang) Run(ctx context.Context) ([]stats.Sim, error) {
	for {
		if g.runErr != nil {
			return g.Results(), g.runErr
		}
		if g.done {
			return g.Results(), nil
		}
		if err := ctx.Err(); err != nil {
			p := g.Progress()
			werr := fmt.Errorf("sim: run cancelled after %d of %d instructions: %w",
				p.Retired, p.Total, err)
			g.fail(werr)
			return g.Results(), werr
		}
		if _, err := g.Step(stepQuantum); err != nil {
			return g.Results(), err
		}
	}
}

// Results returns one stats.Sim per lane: the final measurement window
// for completed lanes, the current partial window otherwise.
func (g *Gang) Results() []stats.Sim {
	out := make([]stats.Sim, len(g.gs.lanes))
	for i, l := range g.gs.lanes {
		if l.finished && l.runErr == nil {
			out[i] = l.final
		} else {
			out[i] = l.Snapshot().Window
		}
	}
	return out
}

// Progress aggregates lane progress: instructions retired and budget
// summed over lanes, the furthest simulated clock, and the least-
// advanced lifecycle phase.
func (g *Gang) Progress() Progress {
	var p Progress
	p.Phase = stats.PhaseDone
	for _, l := range g.gs.lanes {
		lp := l.Progress()
		p.Retired += lp.Retired
		p.Total += lp.Total
		if lp.Cycles > p.Cycles {
			p.Cycles = lp.Cycles
		}
		if lp.Phase < p.Phase {
			p.Phase = lp.Phase
		}
	}
	return p
}

// Err returns the gang's terminal error, if any.
func (g *Gang) Err() error { return g.runErr }

// Close releases the gang's resources (the shared workload source).
// Completed and failed gangs release themselves; Close is for
// abandoning a gang early. Idempotent.
func (g *Gang) Close() error {
	g.gs.close()
	return nil
}
