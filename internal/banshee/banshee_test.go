package banshee

import (
	"testing"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/vm"
)

// testSystem builds a small Banshee.
func testSystem(mutate func(*Config)) *Banshee {
	cfg := DefaultConfig(1 << 20) // 64 sets × 4 ways × 4 KB
	cfg.TagBufferEntries = 64
	cfg.Seed = 7
	if mutate != nil {
		mutate(&cfg)
	}
	// High sampling coefficients push the replacement threshold past
	// what 5-bit counters can express (the same reason the FBRNoSample
	// variant widens its counters); tests that crank the coefficient get
	// wider counters automatically.
	if cfg.SamplingCoeff >= 0.5 && cfg.CounterBits <= 5 {
		cfg.CounterBits = 8
	}
	return New(cfg, vm.DefaultCostModel(2700))
}

// touch sends a demand read.
// nsets returns b's metadata set count.
func nsets(b *Banshee) uint64 { return b.md.setMask + 1 }

func touch(b *Banshee, addr mem.Addr) mcResult {
	res := b.Access(mem.Request{Addr: addr})
	return mcResult{res.Hit, res.Ops}
}

type mcResult struct {
	Hit bool
	Ops []mem.Op
}

func bytesTo(ops []mem.Op, target mem.Kind, class mem.Class) int {
	n := 0
	for _, op := range ops {
		if op.Target == target && op.Class == class {
			n += op.Bytes
		}
	}
	return n
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.PageBytes = 1024 },
		func(c *Config) { c.SamplingCoeff = 0 },
		func(c *Config) { c.SamplingCoeff = 2 },
		func(c *Config) { c.CapacityBytes = 3 * 4096 * 4 },
		func(c *Config) { c.Threshold = 40 }, // unreachable with 5-bit counters
		func(c *Config) { c.CounterBits = 0 },
	}
	for i, mutate := range cases {
		cfg := DefaultConfig(1 << 20)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			New(cfg, vm.DefaultCostModel(2700))
		}()
	}
}

func TestNames(t *testing.T) {
	b := testSystem(nil)
	if b.Name() != "Banshee" {
		t.Fatalf("name %q", b.Name())
	}
	b2 := testSystem(func(c *Config) { c.Policy = LRUReplaceOnMiss })
	if b2.Name() != "Banshee LRU" {
		t.Fatalf("name %q", b2.Name())
	}
	b3 := testSystem(func(c *Config) { c.Policy = FBRNoSample; c.CounterBits = 8 })
	if b3.Name() != "Banshee FBR no-sample" {
		t.Fatalf("name %q", b3.Name())
	}
}

// Table 1: Banshee hit = 64 B, miss = 64 B + 0 B extra; no tag lookup on
// the access path.
func TestAccessPathTraffic(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 0.0001 }) // suppress sampling noise
	res := touch(b, 0x5000)
	if res.Hit {
		t.Fatal("cold access hit")
	}
	off := bytesTo(res.Ops, mem.OffPackage, mem.ClassMissData)
	if off != 64 {
		t.Fatalf("miss off-package bytes %d, want 64", off)
	}
	if got := bytesTo(res.Ops, mem.InPackage, mem.ClassTag); got != 0 {
		t.Fatalf("demand access generated %d tag bytes; Banshee must not probe", got)
	}
}

func TestFBRPromotionToCache(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	addr := mem.Addr(0x9000)
	// Hammer one page: with coeff 1 and cold miss rate 1, every access
	// samples; the page becomes a candidate, accumulates counts, and is
	// promoted into a free way.
	var promoted bool
	for i := 0; i < 50 && !promoted; i++ {
		touch(b, addr)
		promoted, _ = b.Resident(uint64(addr) >> 12)
	}
	if !promoted {
		t.Fatal("hot page never promoted into the cache")
	}
	if b.remaps == 0 {
		t.Fatal("no remap recorded")
	}
}

func TestPromotionGeneratesPageMoveTraffic(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	addr := mem.Addr(0x9000)
	var moveIn, tagW int
	for i := 0; i < 50; i++ {
		res := b.Access(mem.Request{Addr: addr})
		moveIn += bytesTo(res.Ops, mem.InPackage, mem.ClassReplacement)
		tagW += bytesTo(res.Ops, mem.InPackage, mem.ClassTag)
		if r, _ := b.Resident(uint64(addr) >> 12); r {
			break
		}
	}
	// Table 1: replacement moves "32B tag + page size".
	if moveIn != mem.PageBytes {
		t.Fatalf("page fill bytes %d, want %d", moveIn, mem.PageBytes)
	}
	if tagW != metaBytes {
		t.Fatalf("tag write bytes %d, want %d", tagW, metaBytes)
	}
}

func TestHitsAfterPromotion(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	addr := mem.Addr(0x9000)
	for i := 0; i < 50; i++ {
		touch(b, addr)
		if r, _ := b.Resident(uint64(addr) >> 12); r {
			break
		}
	}
	// Until the next flush the hardware's PTE is stale and the remap
	// pinned in the tag buffer supplies the mapping (lazy coherence):
	// the next access must hit.
	page := uint64(addr) >> 12
	if !b.bufferFor(page).Lookup(page) {
		t.Fatal("promoted page not in its tag buffer")
	}
	res := touch(b, addr+64)
	if !res.Hit {
		t.Fatal("access after promotion missed")
	}
	if got := bytesTo(res.Ops, mem.InPackage, mem.ClassHitData); got != 64 {
		t.Fatalf("hit moved %d bytes, want 64", got)
	}
}

func TestSamplingReducesMetadataTraffic(t *testing.T) {
	run := func(coeff float64) uint64 {
		b := testSystem(func(c *Config) { c.SamplingCoeff = coeff })
		for i := 0; i < 20000; i++ {
			touch(b, mem.Addr(i%1000)<<12)
		}
		return b.samples
	}
	hi, lo := run(1.0), run(0.01)
	if lo*10 > hi {
		t.Fatalf("sampling did not reduce metadata accesses: coeff1=%d coeff0.01=%d", hi, lo)
	}
}

func TestAdaptiveSampleRateFollowsMissRate(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 0.5 })
	// Make one hot page resident, then hammer it: miss rate → 0, so
	// sampling should nearly stop.
	addr := mem.Addr(0x4000)
	// Warm past one full miss-rate window (8192 accesses) so the
	// tracker observes the all-hit behavior.
	for i := 0; i < 9000; i++ {
		touch(b, addr)
	}
	before := b.samples
	for i := 0; i < 20000; i++ {
		touch(b, addr)
	}
	newSamples := b.samples - before
	if newSamples > 2000 {
		t.Fatalf("adaptive sampling did not throttle at low miss rate: %d samples", newSamples)
	}
}

func TestAntiThrashThreshold(t *testing.T) {
	// Two pages alternating in a full set must not keep swapping: the
	// threshold requires a candidate to out-score the coldest resident
	// by page_lines × coeff / 2.
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	sets := nsets(b)
	// Fill all 4 ways of set 0 with hot pages.
	for w := uint64(0); w < 4; w++ {
		for i := 0; i < 60; i++ {
			touch(b, mem.Addr((w*sets)<<12))
		}
	}
	remapsBefore := b.remaps
	// Two cold pages alternate in the same set.
	for i := 0; i < 200; i++ {
		touch(b, mem.Addr(((4+uint64(i%2))*sets)<<12))
	}
	churn := b.remaps - remapsBefore
	if churn > 4 {
		t.Fatalf("replacement churn %d despite threshold (thrashing)", churn)
	}
}

func TestCounterSaturationHalves(t *testing.T) {
	b := testSystem(nil)
	md := b.md
	md.keys[0], md.counts[0] = 2, 30 // tag 1
	md.keys[1], md.counts[1] = 3, 8
	md.candKeys[0], md.candCounts[0] = 4, 20
	md.halve(0)
	if md.counts[0] != 15 || md.counts[1] != 4 || md.candCounts[0] != 10 {
		t.Fatalf("halve wrong: cached %v, candidates %v", md.counts[:md.ways], md.candCounts[:md.ncand])
	}
}

// TestReplacementNeedsStrictMargin pins Algorithm 1's trigger: a
// candidate replaces the coldest cached page only when its count
// exceeds the victim's by more than the threshold. With an integer
// threshold the counts can tie at exactly victim + threshold, and a
// tie must not replace.
func TestReplacementNeedsStrictMargin(t *testing.T) {
	const victim, threshold = 5, 3
	for _, tc := range []struct {
		primed  uint32
		replace bool
	}{
		{primed: victim + threshold - 1, replace: false}, // after the access: a tie
		{primed: victim + threshold, replace: true},      // after the access: one more
	} {
		b := testSystem(func(c *Config) {
			c.Policy = FBRNoSample // sample every access
			c.Threshold = threshold
		})
		md := b.md
		for w := 0; w < md.ways; w++ {
			md.keys[w], md.counts[w] = uint64(w)+1, victim // tags 0..ways-1 in set 0
		}
		cand := uint64(md.ways) + 1 // the key of the next tag mapping to set 0
		md.candKeys[0], md.candCounts[0] = cand, tc.primed

		touch(b, mem.Addr(md.pageOf(0, cand)<<12))
		if replaced := md.findCached(0, cand) >= 0; replaced != tc.replace || (b.remaps == 1) != tc.replace {
			t.Fatalf("candidate at %d vs victim %d + threshold %d: replaced %v (%d remaps), want %v",
				tc.primed+1, victim, threshold, replaced, b.remaps, tc.replace)
		}
		if got := md.candCounts[0]; !tc.replace && got != victim+threshold {
			t.Fatalf("primed %d: candidate count %d after the access, want %d", tc.primed, got, victim+threshold)
		}
	}
}

// TestPageZeroIsCacheable pins the metadata keys' +1 bias: page 0 has
// tag 0 in set 0, which without the bias would equal a free way's key.
// It must read as absent from an empty set, become resident when
// replaced in, keep its own counter beside a neighbour in the same set,
// and take its dirty evictions in its own way.
func TestPageZeroIsCacheable(t *testing.T) {
	b := testSystem(func(c *Config) { c.Policy = FBRNoSample }) // sample every access
	md := b.md
	if r, _ := b.Resident(0); r {
		t.Fatal("page 0 resident in an empty cache")
	}
	res := b.Access(mem.Request{Addr: 0x40, Write: true, Eviction: true})
	if res.Hit || bytesTo(res.Ops, mem.OffPackage, mem.ClassReplacement) != mem.LineBytes {
		t.Fatalf("eviction to uncached page 0: hit %v, ops %+v; want one off-package line write", res.Hit, res.Ops)
	}
	// Two touches each: the first claims a candidate slot, the second
	// replaces the page into a free way.
	neighbour := mem.Addr(nsets(b) << 12) // page nsets: set 0, tag 1
	for _, a := range []mem.Addr{0, 0, neighbour, neighbour} {
		touch(b, a)
	}
	r0, w0 := b.Resident(0)
	r1, w1 := b.Resident(nsets(b))
	if !r0 || !r1 || w0 == w1 {
		t.Fatalf("page 0 resident %v in way %d, neighbour resident %v in way %d", r0, w0, r1, w1)
	}
	for i := 0; i < 3; i++ {
		if !touch(b, 0).Hit {
			t.Fatalf("touch %d of resident page 0 missed", i)
		}
	}
	if c0, c1 := md.counts[w0], md.counts[w1]; c0 != 5 || c1 != 2 {
		t.Fatalf("counters: page 0 %d, neighbour %d; want 5 and 2", c0, c1)
	}
	res = b.Access(mem.Request{Addr: 0x40, Write: true, Eviction: true})
	if !res.Hit || bytesTo(res.Ops, mem.InPackage, mem.ClassHitData) != mem.LineBytes {
		t.Fatalf("eviction to resident page 0: hit %v, ops %+v; want one in-package line write", res.Hit, res.Ops)
	}
	if !md.dirty[w0] || md.dirty[w1] {
		t.Fatalf("dirty bits: page 0 %v, neighbour %v; want true and false", md.dirty[w0], md.dirty[w1])
	}
}

func TestEvictionProbeOnUnknownMapping(t *testing.T) {
	b := testSystem(nil)
	// LLC dirty eviction with no mapping: must probe metadata (32 B tag
	// read) and allocate a clean tag-buffer entry.
	res := b.Access(mem.Request{Addr: 0x3000, Write: true, Eviction: true})
	if got := bytesTo(res.Ops, mem.InPackage, mem.ClassTag); got != metaBytes {
		t.Fatalf("probe bytes %d, want %d", got, metaBytes)
	}
	if b.probes != 1 {
		t.Fatalf("probes %d", b.probes)
	}
	// Second eviction to the same page: the clean entry absorbs the probe.
	b.Access(mem.Request{Addr: 0x3040, Write: true, Eviction: true})
	if b.probes != 1 {
		t.Fatalf("tag buffer did not absorb repeat probe: %d", b.probes)
	}
}

func TestLazyPTESync(t *testing.T) {
	b := testSystem(func(c *Config) {
		c.SamplingCoeff = 1.0
		c.TagBufferEntries = 16
	})
	// Generate many remaps to overflow the 70% threshold of the tiny
	// buffer, forcing a flush.
	var sw []mc.SWCost
	for i := 0; i < 3000 && b.flushes == 0; i++ {
		res := b.Access(mem.Request{Addr: mem.Addr(uint64(i%300) << 12)})
		sw = append(sw, res.SW...)
	}
	if b.flushes == 0 {
		t.Fatal("tag buffer never flushed")
	}
	if len(sw) != 1 {
		t.Fatalf("flush charged %d software costs, want 1", len(sw))
	}
	// The routine's cost is the whole update, one per-PTE touch for each
	// drained remap (at least one), and the shootdown.
	cost := vm.DefaultCostModel(2700)
	extra := sw[0].InitiatorCycles - cost.PTEUpdateCycles - cost.ShootdownInitiator
	if extra == 0 || extra%perPTETouchCycles != 0 {
		t.Fatalf("flush charged %d cycles beyond the routine, want a positive multiple of %d", extra, perPTETouchCycles)
	}
	if sw[0].AllCoresCycles != cost.ShootdownSlave {
		t.Fatalf("all-core stall %d, want the shootdown's %d", sw[0].AllCoresCycles, cost.ShootdownSlave)
	}
	// The flush shot down every TLB and unpinned every remap.
	if !sw[0].FlushTLBs {
		t.Fatal("flush did not declare the TLB shootdown")
	}
	for _, tb := range b.tbs {
		if tb.RemapFill() >= flushThreshold {
			t.Fatalf("remap fill %v after the flush", tb.RemapFill())
		}
	}
}

func TestMappingAlwaysCurrent(t *testing.T) {
	// The metadata is the one record of where a page lives: a demand
	// access hits exactly when the metadata holds the page.
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	for i := 0; i < 20000; i++ {
		addr := mem.Addr(uint64(i*2654435761)%2048) << 12
		resident, _ := b.Resident(uint64(addr) >> 12)
		res := b.Access(mem.Request{Addr: addr})
		if res.Hit != resident {
			t.Fatalf("iteration %d: hit=%v but resident=%v", i, res.Hit, resident)
		}
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0; c.Ways = 1 })
	sets := nsets(b)
	hot1 := mem.Addr(0)
	hot2 := mem.Addr(sets << 12) // same set
	// Promote page 1, dirty it.
	for i := 0; i < 50; i++ {
		touch(b, hot1)
	}
	if r, _ := b.Resident(0); !r {
		t.Fatal("page 1 not resident")
	}
	b.Access(mem.Request{Addr: hot1, Write: true, Eviction: true})
	// Promote page 2 hard enough to evict page 1.
	var wbOff int
	for i := 0; i < 400; i++ {
		res := b.Access(mem.Request{Addr: hot2})
		for _, op := range res.Ops {
			if op.Target == mem.OffPackage && op.Write && op.Class == mem.ClassReplacement {
				wbOff += op.Bytes
			}
		}
		if r, _ := b.Resident(uint64(hot2) >> 12); r {
			break
		}
	}
	if r, _ := b.Resident(uint64(hot2) >> 12); !r {
		t.Fatal("page 2 never displaced page 1")
	}
	if wbOff != mem.PageBytes {
		t.Fatalf("dirty victim writeback %d bytes, want %d", wbOff, mem.PageBytes)
	}
}

func TestLargePageGeometry(t *testing.T) {
	cfg := LargePageConfig(64 << 20) // 8 sets × 4 ways × 2 MB
	cfg.Seed = 3
	b := New(cfg, vm.DefaultCostModel(2700))
	if b.Name() != "Banshee 2M" {
		t.Fatalf("name %q", b.Name())
	}
	if nsets(b) != 8 {
		t.Fatalf("sets %d, want 8", nsets(b))
	}
	if b.lines != mem.LinesPerLargePage {
		t.Fatalf("lines per page %d", b.lines)
	}
	// Threshold: 32768 × 0.001 / 2 ≈ 16.4 — reachable with 5-bit counters.
	if b.threshold < 16 || b.threshold > 17 {
		t.Fatalf("large-page threshold %v", b.threshold)
	}
}

func TestLargePageReplacementMovesWholePage(t *testing.T) {
	cfg := LargePageConfig(64 << 20)
	cfg.SamplingCoeff = 1.0 // sample every access so the test converges fast
	cfg.Threshold = 8       // keep the threshold reachable despite coeff=1
	cfg.CounterBits = 8
	b := New(cfg, vm.DefaultCostModel(2700))
	addr := mem.Addr(0x40000000)
	var fill int
	for i := 0; i < 300; i++ {
		res := b.Access(mem.Request{Addr: addr, Size: mem.Page2M})
		for _, op := range res.Ops {
			if op.Target == mem.InPackage && op.Write && op.Class == mem.ClassReplacement {
				fill += op.Bytes
			}
		}
		if r, _ := b.Resident(uint64(addr) >> 21); r {
			break
		}
	}
	if fill != mem.LargeBytes {
		t.Fatalf("large page fill %d bytes, want %d", fill, mem.LargeBytes)
	}
}

func TestLRUPolicyReplacesEveryMiss(t *testing.T) {
	b := testSystem(func(c *Config) { c.Policy = LRUReplaceOnMiss })
	for i := 0; i < 100; i++ {
		touch(b, mem.Addr(uint64(i)<<12))
	}
	if b.remaps != 100 {
		t.Fatalf("LRU policy remapped %d of 100 misses", b.remaps)
	}
}

func TestFillStats(t *testing.T) {
	b := testSystem(func(c *Config) { c.SamplingCoeff = 1.0 })
	for i := 0; i < 500; i++ {
		touch(b, mem.Addr(uint64(i%20)<<12))
	}
	var s stats.Sim
	b.FillStats(&s)
	if s.Remaps == 0 || s.CounterSamples == 0 {
		t.Fatalf("stats not filled: %+v", s)
	}
}
