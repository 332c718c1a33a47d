package main

import (
	"fmt"
	"io"
	"time"

	"banshee"
	"banshee/internal/cache"
	"banshee/internal/dram"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/registry"
	"banshee/internal/sim"
	"banshee/internal/stats"
	"banshee/internal/vm"
	"banshee/internal/workload"
)

// replayRepeats is how many timed passes each layer replay makes; the
// median pass is reported.
const replayRepeats = 3

// sessionTrace is one traced direct run — a tapped workload under the
// armed scheme tap — with the untraced runs of the same config it is
// timed against.
type sessionTrace struct {
	cfg        sim.Config // resolved: inner workload name, parsed scheme spec
	res        stats.Sim  // the traced run's result
	plainWall  time.Duration
	tracedWall time.Duration
	cap        *capture
}

// traceSession runs cfg untraced and traced reps times each, swapping
// which goes first every repetition (median walls), and keeps the last
// traced run's capture. The traced result must equal the untraced one:
// the taps observe, never perturb.
func traceSession(cfg banshee.Config, wl, scheme string, reps int) (*sessionTrace, error) {
	spec, err := sim.ResolveScheme(scheme, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	st := &sessionTrace{}
	st.cfg = cfg
	st.cfg.Workload, st.cfg.Scheme = wl, spec
	var plain, traced []float64
	var want stats.Sim
	untraced := func() error {
		t := time.Now()
		r, err := banshee.Run(cfg, wl, scheme)
		plain = append(plain, float64(time.Since(t)))
		want = r
		return err
	}
	tracedRun := func() error {
		// Later repetitions pre-size the capture from the previous one, so
		// slice growth stays out of the traced wall time.
		c := &capture{store: true}
		if p := st.cap; p != nil {
			c.events = make([]coreEvent, 0, len(p.events))
			c.reqs = make([]capturedReq, 0, len(p.reqs))
			c.ops = make([]mem.Op, 0, len(p.ops))
		}
		st.cap = c
		return withCapture(c, true, func() error {
			t := time.Now()
			r, err := banshee.Run(cfg, tapPrefix+wl, scheme)
			traced = append(traced, float64(time.Since(t)))
			st.res = r
			return err
		})
	}
	for i := 0; i < reps; i++ {
		first, second := untraced, tracedRun
		if i%2 == 1 {
			first, second = tracedRun, untraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}
	st.res.Workload = wl
	if digest(st.res) != digest(want) {
		return nil, fmt.Errorf("traced %s/%s run differs from the untraced run: the taps perturbed it", wl, scheme)
	}
	st.plainWall, st.tracedWall = time.Duration(median(plain)), time.Duration(median(traced))
	return st, nil
}

// ledger accumulates per-layer work counts and replay times over one or
// more traced sessions.
type ledger struct {
	sessions                                    int
	events, instr                               uint64
	wlNs, vmNs, cacheNs, schemeNs, dramNs       float64
	plainNs, tracedNs                           float64
	tlbHits                                     uint64
	l1Acc, l1Miss, l2Acc, l2Miss, l3Acc, l3Miss uint64
	reqs, demand, dcHits, ops                   uint64
	remaps, flushes                             uint64
	rowHits, rowMisses                          uint64
	inBytes, offBytes                           uint64
	mismatches                                  int
}

// replay times every model layer of one traced session by replaying
// its captured streams through the layer's public functions, checks
// that each replay reproduces the run's own counters, and adds the
// result to l. Mismatches are recorded on rec.
func (l *ledger) replay(st *sessionTrace, rec *record) error {
	cfg, c := st.cfg, st.cap
	w := warmBoundary(cfg, c.events)
	name := cfg.Workload + "/" + st.res.Scheme
	bad := func(format string, args ...any) {
		l.mismatches++
		rec.Mismatches = append(rec.Mismatches, fmt.Sprintf("replay %s: "+format, append([]any{name}, args...)...))
	}
	l.sessions++
	l.events += uint64(len(c.events))
	l.instr += cfg.InstrPerCore * uint64(cfg.Cores)
	l.plainNs += float64(st.plainWall)
	l.tracedNs += float64(st.tracedWall)

	// workload: a fresh source drawn in the captured core order.
	var wl []float64
	for i := 0; i < replayRepeats; i++ {
		ns, same, err := replayWorkload(cfg, c.events)
		if err != nil {
			return err
		}
		if !same && i == 0 {
			bad("a fresh source does not reproduce the captured event stream")
		}
		wl = append(wl, ns)
	}
	l.wlNs += median(wl)

	// vm: per-core TLBs over a fresh page table.
	var vmt []float64
	var hits uint64
	for i := 0; i < replayRepeats; i++ {
		ns, h := replayVM(cfg, c.events)
		vmt, hits = append(vmt, ns), h
	}
	l.vmNs += median(vmt)
	l.tlbHits += hits

	// cache: the L1/L2/L3 cascade; its LLC-miss and write-back stream
	// must equal the stream the scheme saw.
	var ct []float64
	var h *hierarchy
	for i := 0; i < replayRepeats; i++ {
		h = newHierarchy(cfg, len(c.reqs))
		ct = append(ct, h.run(c.events, w, cfg.LargePages))
	}
	l.cacheNs += median(ct)
	win := h.window()
	for _, chk := range []struct {
		what      string
		got, want uint64
	}{
		{"L1 accesses", win[0], st.res.L1Accesses}, {"L1 misses", win[1], st.res.L1Misses},
		{"L2 accesses", win[2], st.res.L2Accesses}, {"L2 misses", win[3], st.res.L2Misses},
		{"LLC accesses", win[4], st.res.LLCAccesses}, {"LLC misses", win[5], st.res.LLCMisses},
		{"LLC evictions", win[6], st.res.LLCEvictions},
	} {
		if chk.got != chk.want {
			bad("%s: replay %d, run %d", chk.what, chk.got, chk.want)
		}
	}
	if i, ok := sameRequests(h.out, c.reqs); !ok {
		bad("cache replay's memory-controller stream diverges from the captured one at request %d", i)
	}
	all := h.totals()
	l.l1Acc += all[0]
	l.l1Miss += all[1]
	l.l2Acc += all[2]
	l.l2Miss += all[3]
	l.l3Acc += all[4]
	l.l3Miss += all[5]

	// scheme: a freshly built scheme fed the captured requests.
	sr, err := replayScheme(cfg, c, w, true)
	if err != nil {
		return err
	}
	if sr.diverged >= 0 {
		bad("scheme replay's ops diverge from the captured ones at request %d", sr.diverged)
	}
	var stt []float64
	for i := 0; i < replayRepeats; i++ {
		r, err := replayScheme(cfg, c, w, false)
		if err != nil {
			return err
		}
		stt = append(stt, r.ns)
	}
	l.schemeNs += median(stt)
	for _, chk := range []struct {
		what      string
		got, want uint64
	}{
		{"DC hits", sr.winHits, st.res.DCHits}, {"DC misses", sr.winDemand - sr.winHits, st.res.DCMisses},
		{"remaps", sr.winStats.Remaps, st.res.Remaps},
		{"tag-buffer flushes", sr.winStats.TagBufferFlushes, st.res.TagBufferFlushes},
		{"TLB shootdowns", sr.winStats.TLBShootdowns, st.res.TLBShootdowns},
	} {
		if chk.got != chk.want {
			bad("%s: replay %d, run %d", chk.what, chk.got, chk.want)
		}
	}
	l.reqs += uint64(len(c.reqs))
	l.demand += sr.demand
	l.dcHits += sr.hits
	l.ops += uint64(len(c.ops))
	l.remaps += sr.total.Remaps
	l.flushes += sr.total.TagBufferFlushes

	// dram: the captured ops, stage-ordered per request.
	var dt []float64
	var dr dramReplay
	for i := 0; i < replayRepeats; i++ {
		dr = replayDRAM(cfg, c, w, st.res.Cycles)
		dt = append(dt, dr.ns)
	}
	l.dramNs += median(dt)
	for k := range dr.win[0] {
		if dr.win[0][k] != st.res.InPkg.Bytes[k] || dr.win[1][k] != st.res.OffPkg.Bytes[k] {
			bad("%s traffic: replay in=%d off=%d, run in=%d off=%d", mem.Class(k),
				dr.win[0][k], dr.win[1][k], st.res.InPkg.Bytes[k], st.res.OffPkg.Bytes[k])
		}
	}
	l.rowHits += dr.rowHits
	l.rowMisses += dr.rowMisses
	l.inBytes += dr.inBytes
	l.offBytes += dr.offBytes

	if st.res.TLBShootdowns > 0 {
		addException(rec, "vm: TLB hit counts are the replay's own — the run's TLBs are also flushed by the scheme's shootdowns, which a translation-only replay does not see (stats.Sim carries no TLB counters to compare)")
	}
	addException(rec, "dram: the scheme boundary carries no issue time, so DRAM replays run on a synthetic clock; completion times are not reproduced, while traffic bytes per class (compared) and row-buffer hit/miss counts (time-independent) are")
	return nil
}

func addException(rec *record, e string) {
	for _, have := range rec.Exceptions {
		if have == e {
			return
		}
	}
	rec.Exceptions = append(rec.Exceptions, e)
}

// emit reports the ledger as per-layer metrics.
func (l *ledger) emit(rec *record) {
	ev := float64(l.events)
	replayNs := l.wlNs + l.vmNs + l.cacheNs + l.schemeNs + l.dramNs
	self := l.plainNs - replayNs
	dramOps := float64(l.rowHits + l.rowMisses)
	rec.layer("workload.events", ev, "count")
	rec.layer("workload.ns_per_event", ratio(l.wlNs, ev), "ns")
	rec.layer("vm.lookups", ev, "count")
	rec.layer("vm.tlb_hit_ratio", ratio(float64(l.tlbHits), ev), "1")
	rec.layer("vm.ns_per_lookup", ratio(l.vmNs, ev), "ns")
	rec.layer("cache.l1.accesses", float64(l.l1Acc), "count")
	rec.layer("cache.l1.hit_ratio", 1-ratio(float64(l.l1Miss), float64(l.l1Acc)), "1")
	rec.layer("cache.l2.hit_ratio", 1-ratio(float64(l.l2Miss), float64(l.l2Acc)), "1")
	rec.layer("cache.l3.hit_ratio", 1-ratio(float64(l.l3Miss), float64(l.l3Acc)), "1")
	rec.layer("cache.ns_per_access", ratio(l.cacheNs, float64(l.l1Acc)), "ns")
	rec.layer("scheme.accesses", float64(l.reqs), "count")
	rec.layer("scheme.dc_hit_ratio", ratio(float64(l.dcHits), float64(l.demand)), "1")
	rec.layer("scheme.ops_per_access", ratio(float64(l.ops), float64(l.reqs)), "1")
	rec.layer("scheme.ns_per_access", ratio(l.schemeNs, float64(l.reqs)), "ns")
	rec.layer("scheme.remaps", float64(l.remaps), "count")
	rec.layer("scheme.tagbuf_flushes", float64(l.flushes), "count")
	rec.layer("dram.ops", float64(l.ops), "count")
	rec.layer("dram.row_hit_ratio", ratio(float64(l.rowHits), dramOps), "1")
	rec.layer("dram.ns_per_op", ratio(l.dramNs, float64(l.ops)), "ns")
	rec.layer("dram.inpkg_bytes_per_instr", ratio(float64(l.inBytes), float64(l.instr)), "B")
	rec.layer("dram.offpkg_bytes_per_instr", ratio(float64(l.offBytes), float64(l.instr)), "B")
	rec.layer("sim.events", ev, "count")
	rec.layer("sim.self_ns_per_event", ratio(self, ev), "ns")
	rec.layer("sim.self_frac", ratio(self, l.plainNs), "1")
	rec.layer("trace.overhead_frac", ratio(l.tracedNs, l.plainNs)-1, "1")
	rec.layer("replay.mismatches", float64(l.mismatches), "count")
	rec.Params["replay_sessions"] = l.sessions
}

// warmBoundary returns how many events the run had drawn when its
// warmup window closed: the sim checks the retired count after every
// event, so the window opens after the first event reaching the target.
func warmBoundary(cfg sim.Config, evs []coreEvent) int {
	target := uint64(float64(cfg.InstrPerCore*uint64(cfg.Cores)) * cfg.WarmupFrac)
	if target == 0 {
		return 0
	}
	var retired uint64
	for i, e := range evs {
		retired += uint64(e.ev.Gap) + 1
		if retired >= target {
			return i + 1
		}
	}
	return len(evs)
}

func workloadSeed(cfg sim.Config) uint64 {
	if cfg.WorkloadSeed != 0 {
		return cfg.WorkloadSeed
	}
	return cfg.Seed
}

func openSource(cfg sim.Config) (workload.Source, error) {
	return workload.Open(cfg.Workload, workload.Config{
		Cores: cfg.Cores, Seed: workloadSeed(cfg), Scale: cfg.Scale, Intensity: cfg.Intensity,
	})
}

// replayWorkload draws len(evs) events from a fresh source in the
// captured core order, returning the ns spent and whether the stream
// matched the capture.
func replayWorkload(cfg sim.Config, evs []coreEvent) (float64, bool, error) {
	src, err := openSource(cfg)
	if err != nil {
		return 0, false, err
	}
	if c, ok := src.(io.Closer); ok {
		defer c.Close()
	}
	var h uint64
	t := time.Now()
	for _, e := range evs {
		ev := src.Next(int(e.core))
		h = h*0x100000001B3 ^ uint64(ev.Addr) ^ uint64(ev.Gap)<<40 ^ uint64(b2i(ev.Write))<<63
	}
	ns := float64(time.Since(t))
	var want uint64
	for _, e := range evs {
		want = want*0x100000001B3 ^ uint64(e.ev.Addr) ^ uint64(e.ev.Gap)<<40 ^ uint64(b2i(e.ev.Write))<<63
	}
	return ns, h == want, nil
}

// replayVM translates every event through per-core TLBs over a fresh
// page table, returning the ns spent and the TLB hits.
func replayVM(cfg sim.Config, evs []coreEvent) (float64, uint64) {
	pt := vm.NewPageTable()
	pt.DefaultLarge = cfg.LargePages
	tlbs := make([]*vm.TLB, cfg.Cores)
	for i := range tlbs {
		tlbs[i] = vm.NewTLB(cfg.TLBEntries)
	}
	t := time.Now()
	for _, e := range evs {
		tlbs[e.core].Lookup(e.ev.Addr, pt)
	}
	ns := float64(time.Since(t))
	var hits uint64
	for _, tl := range tlbs {
		hits += tl.Hits
	}
	return ns, hits
}

// hierarchy replays the SRAM cascade of the sim's direct stepping path
// (prefetching off): private L1/L2 per core, a shared L3, dirty
// write-backs cascading down, and every LLC miss or write-back emitted
// as the memory-controller request the scheme would receive.
type hierarchy struct {
	l1, l2 []*cache.Cache
	l3     *cache.Cache
	out    []capturedReq
	events uint64
	evicts uint64
	mark   [7]uint64 // counters when the warmup window closed
	end    [7]uint64
}

func newHierarchy(cfg sim.Config, reqHint int) *hierarchy {
	h := &hierarchy{out: make([]capturedReq, 0, reqHint)}
	h.l3 = cache.New(cache.Config{Name: "L3", SizeBytes: cfg.L3Bytes, Ways: cfg.L3Ways,
		LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed})
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, cache.New(cache.Config{Name: fmt.Sprintf("L1d-%d", i), SizeBytes: cfg.L1Bytes,
			Ways: cfg.L1Ways, LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed + uint64(i)}))
		h.l2 = append(h.l2, cache.New(cache.Config{Name: fmt.Sprintf("L2-%d", i), SizeBytes: cfg.L2Bytes,
			Ways: cfg.L2Ways, LineBytes: mem.LineBytes, Policy: cache.LRU, Seed: cfg.Seed + uint64(i)}))
	}
	return h
}

// run replays evs, closing the counter window before event w, and
// returns the ns spent.
func (h *hierarchy) run(evs []coreEvent, w int, large bool) float64 {
	var meta uint8
	size := mem.Page4K
	if large {
		meta, size = 1, mem.Page2M
	}
	t := time.Now()
	for i := range evs {
		if i == w {
			h.mark = h.counters()
		}
		h.events = uint64(i + 1)
		e := &evs[i]
		core := int(e.core)
		if hit, ev1 := h.l1[core].Access(e.ev.Addr, e.ev.Write, meta); !hit {
			if ev1 != nil {
				if ev := h.l2[core].Fill(ev1.Addr, true, ev1.Meta); ev != nil {
					h.fillL3(core, ev.Addr, ev.Meta)
				}
			}
			if hit2, ev2 := h.l2[core].Access(e.ev.Addr, false, meta); !hit2 {
				if ev2 != nil {
					h.fillL3(core, ev2.Addr, ev2.Meta)
				}
				if hit3, ev3 := h.l3.Access(e.ev.Addr, false, meta); !hit3 {
					if ev3 != nil {
						h.writeBack(core, ev3)
					}
					h.out = append(h.out, capturedReq{events: h.events, req: mem.Request{
						Addr: e.ev.Addr, Write: e.ev.Write, Core: core, Size: size}})
				}
			}
		}
	}
	ns := float64(time.Since(t))
	if w >= len(evs) {
		h.mark = h.counters()
	}
	h.end = h.counters()
	return ns
}

func (h *hierarchy) fillL3(core int, a mem.Addr, meta uint8) {
	if ev := h.l3.Fill(a, true, meta); ev != nil {
		h.writeBack(core, ev)
	}
}

func (h *hierarchy) writeBack(core int, ev *cache.Eviction) {
	h.evicts++
	size := mem.Page4K
	if ev.Meta&1 != 0 {
		size = mem.Page2M
	}
	h.out = append(h.out, capturedReq{events: h.events, req: mem.Request{
		Addr: ev.Addr, Write: true, Core: core, Size: size, Eviction: true}})
}

// counters returns L1/L2/L3 accesses and misses plus LLC write-backs.
func (h *hierarchy) counters() [7]uint64 {
	var c [7]uint64
	for i := range h.l1 {
		s1, s2 := h.l1[i].Stats(), h.l2[i].Stats()
		c[0] += s1.Accesses
		c[1] += s1.Misses
		c[2] += s2.Accesses
		c[3] += s2.Misses
	}
	s3 := h.l3.Stats()
	c[4], c[5], c[6] = s3.Accesses, s3.Misses, h.evicts
	return c
}

// window returns the counters over the measurement window.
func (h *hierarchy) window() [7]uint64 {
	var d [7]uint64
	for i := range d {
		d[i] = h.end[i] - h.mark[i]
	}
	return d
}

// totals returns the whole-run counters.
func (h *hierarchy) totals() [7]uint64 { return h.end }

// sameRequests compares the replayed request stream with the captured
// one on every field the SRAM hierarchy decides (the PTE mapping bits
// are the scheme's own state, so they are not compared). It returns the
// first differing index.
func sameRequests(got, want []capturedReq) (int, bool) {
	for i := range got {
		if i >= len(want) {
			return i, false
		}
		g, w := got[i], want[i]
		if g.events != w.events || g.req.Addr != w.req.Addr || g.req.Write != w.req.Write ||
			g.req.Core != w.req.Core || g.req.Size != w.req.Size || g.req.Eviction != w.req.Eviction {
			return i, false
		}
	}
	if len(got) != len(want) {
		return len(got), false
	}
	return 0, true
}

// schemeReplay is the outcome of feeding a capture's requests to a
// freshly built scheme.
type schemeReplay struct {
	ns                 float64
	demand, hits       uint64 // whole run
	winDemand, winHits uint64 // measurement window
	total, winStats    stats.Sim
	diverged           int // first request whose result differs (-1 = none; verify only)
}

// replayScheme builds cfg's scheme over fresh VM state (its page table
// pre-populated with every page the run touched) and feeds it the
// captured requests. With verify it compares each result against the
// capture; otherwise it only times the loop.
func replayScheme(cfg sim.Config, c *capture, w int, verify bool) (schemeReplay, error) {
	pt := vm.NewPageTable()
	pt.DefaultLarge = cfg.LargePages
	for _, e := range c.events {
		pt.Translate(e.ev.Addr)
	}
	tlbs := make([]*vm.TLB, cfg.Cores)
	for i := range tlbs {
		tlbs[i] = vm.NewTLB(cfg.TLBEntries)
	}
	cost := vm.DefaultCostModel(cfg.CPUMHz)
	if cfg.Scheme.PTEUpdateMicros > 0 {
		cost.PTEUpdateCycles = uint64(cfg.Scheme.PTEUpdateMicros * cfg.CPUMHz)
	}
	s, err := registry.Build(cfg.Scheme, registry.Env{
		CapacityBytes: cfg.DCacheBytes, Seed: cfg.Seed, CPUMHz: cfg.CPUMHz,
		LargePages: cfg.LargePages, PageTable: pt, TLBs: tlbs, Cost: cost,
	})
	if err != nil {
		return schemeReplay{}, err
	}
	r := schemeReplay{diverged: -1}
	marked := false
	t := time.Now()
	for i := range c.reqs {
		q := &c.reqs[i]
		if !marked && q.events > uint64(w) {
			s.FillStats(&r.winStats)
			marked = true
		}
		res := s.Access(q.req)
		if !q.req.Eviction {
			r.demand++
			if res.Hit {
				r.hits++
			}
			if q.events > uint64(w) {
				r.winDemand++
				if res.Hit {
					r.winHits++
				}
			}
		}
		if verify && r.diverged < 0 && !sameResult(res, q, c.ops) {
			r.diverged = i
		}
	}
	r.ns = float64(time.Since(t))
	if !marked {
		s.FillStats(&r.winStats)
	}
	s.FillStats(&r.total)
	r.winStats = subSchemeStats(r.total, r.winStats)
	return r, nil
}

func sameResult(res mc.Result, q *capturedReq, ops []mem.Op) bool {
	want := ops[q.op0:q.op1]
	if res.Hit != q.hit || len(res.Ops) != len(want) {
		return false
	}
	for i := range want {
		if res.Ops[i] != want[i] {
			return false
		}
	}
	return true
}

// subSchemeStats returns the scheme-internal counters of a minus b.
func subSchemeStats(a, b stats.Sim) stats.Sim {
	return stats.Sim{
		Remaps:           a.Remaps - b.Remaps,
		TagBufferFlushes: a.TagBufferFlushes - b.TagBufferFlushes,
		TLBShootdowns:    a.TLBShootdowns - b.TLBShootdowns,
	}
}

// dramReplay is the outcome of executing a capture's DRAM ops.
type dramReplay struct {
	ns                 float64
	win                [2][mem.ClassCount]uint64 // window bytes: in-package, off-package
	inBytes, offBytes  uint64                    // whole run
	rowHits, rowMisses uint64
}

// replayDRAM executes every captured op on fresh in- and off-package
// DRAM models in the sim's stage order. Requests are issued on a
// synthetic clock spaced by the run's mean cycles per request.
func replayDRAM(cfg sim.Config, c *capture, w int, cycles uint64) dramReplay {
	inCfg, offCfg := dram.InPackageConfig(cfg.CPUMHz), dram.OffPackageConfig(cfg.CPUMHz)
	if cfg.InPkgChannels > 0 {
		inCfg.Channels = cfg.InPkgChannels
	}
	if cfg.InPkgLatScale > 0 {
		inCfg.LatencyScale = cfg.InPkgLatScale
	}
	in, off := dram.New(inCfg), dram.New(offCfg)
	var winReqs uint64
	for i := range c.reqs {
		if c.reqs[i].events > uint64(w) {
			winReqs++
		}
	}
	gap := cycles / max(winReqs, 1)
	var r dramReplay
	t := time.Now()
	for i := range c.reqs {
		q := &c.reqs[i]
		ops := c.ops[q.op0:q.op1]
		inWin := q.events > uint64(w)
		maxStage := uint8(0)
		for _, op := range ops {
			maxStage = max(maxStage, op.Stage)
		}
		stageStart := uint64(i) * gap
		for st := uint8(0); st <= maxStage; st++ {
			critEnd := stageStart
			for _, op := range ops {
				if op.Stage != st {
					continue
				}
				d, k := off, 1
				if op.Target == mem.InPackage {
					d, k = in, 0
				}
				var done uint64
				if op.Fused {
					done = d.Extend(op.Addr, op.Bytes, op.Write, op.Critical)
				} else {
					done = d.Access(stageStart, op.Addr, op.Bytes, op.Write, op.Critical)
				}
				if inWin {
					r.win[k][op.Class] += uint64(op.Bytes)
				}
				if op.Critical && done > critEnd {
					critEnd = done
				}
			}
			stageStart = critEnd
		}
	}
	r.ns = float64(time.Since(t))
	for _, op := range c.ops {
		if op.Target == mem.InPackage {
			r.inBytes += uint64(op.Bytes)
		} else {
			r.offBytes += uint64(op.Bytes)
		}
	}
	si, so := in.Stats(), off.Stats()
	r.rowHits, r.rowMisses = si.RowHits+so.RowHits, si.RowMisses+so.RowMisses
	return r
}
