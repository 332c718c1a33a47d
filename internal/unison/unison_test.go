package unison

import (
	"testing"

	"banshee/internal/mem"
)

func newTest() *Unison {
	return New(Config{CapacityBytes: 1 << 20}) // 64 sets
}

func bytesTo(ops []mem.Op, target mem.Kind) int {
	n := 0
	for _, op := range ops {
		if op.Target == target {
			n += op.Bytes
		}
	}
	return n
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{CapacityBytes: 3 * mem.PageBytes},
		{CapacityBytes: 3 * assoc * mem.PageBytes},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Table 1: Unison hit traffic is at least 128 B (tag read + data +
// tag/LRU update).
func TestHitTraffic(t *testing.T) {
	u := newTest()
	u.Access(mem.Request{Addr: 0x4000})
	res := u.Access(mem.Request{Addr: 0x4040}) // same page, other line
	if !res.Hit {
		t.Fatal("page hit expected")
	}
	if got := bytesTo(res.Ops, mem.InPackage); got != 128 {
		t.Fatalf("hit in-package bytes %d, want 128", got)
	}
	if bytesTo(res.Ops, mem.OffPackage) != 0 {
		t.Fatal("hit touched off-package DRAM")
	}
}

// Table 1: miss traffic at least 96 B (speculative data + tag read),
// plus replacement on every miss.
func TestMissTrafficAndReplacement(t *testing.T) {
	u := newTest()
	res := u.Access(mem.Request{Addr: 0x8000})
	if res.Hit {
		t.Fatal("cold access hit")
	}
	spec := 0
	for _, op := range res.Ops {
		if op.Stage == 0 && op.Target == mem.InPackage {
			spec += op.Bytes
		}
	}
	if spec != 96 {
		t.Fatalf("speculative probe bytes %d, want 96", spec)
	}
	if u.fills != 1 {
		t.Fatal("Unison must replace on every miss")
	}
	// Fill traffic covers the predicted footprint (prior = 16 lines).
	var inFill int
	for _, op := range res.Ops {
		if op.Target == mem.InPackage && op.Write && op.Class == mem.ClassReplacement {
			inFill += op.Bytes
		}
	}
	if inFill != 16*mem.LineBytes {
		t.Fatalf("fill bytes %d, want %d", inFill, 16*mem.LineBytes)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	u := newTest()
	sets := uint64(len(u.sets))
	stride := mem.Addr(sets * mem.PageBytes)
	for i := 0; i < 4; i++ {
		u.Access(mem.Request{Addr: mem.Addr(i) * stride})
	}
	u.Access(mem.Request{Addr: 0})          // refresh page 0
	u.Access(mem.Request{Addr: 4 * stride}) // evicts page 1 (LRU)
	if !u.Access(mem.Request{Addr: 0}).Hit {
		t.Fatal("MRU page evicted")
	}
	if u.Access(mem.Request{Addr: 1 * stride}).Hit {
		t.Fatal("LRU page survived")
	}
}

func TestFootprintLearning(t *testing.T) {
	u := newTest()
	sets := uint64(len(u.sets))
	stride := mem.Addr(sets * mem.PageBytes)
	// Touch 8 lines per page generation over many generations in one set.
	for g := 0; g < 200; g++ {
		base := mem.Addr(g%8) * stride
		for l := 0; l < 8; l++ {
			u.Access(mem.Request{Addr: base + mem.Addr(l*64)})
		}
	}
	if fp := u.FootprintLines(); fp != 8 {
		t.Fatalf("learned footprint %d, want 8", fp)
	}
}

func TestDirtyLinesWrittenBackOnEviction(t *testing.T) {
	u := newTest()
	sets := uint64(len(u.sets))
	stride := mem.Addr(sets * mem.PageBytes)
	u.Access(mem.Request{Addr: 0})
	// Dirty two lines of page 0 via LLC evictions.
	u.Access(mem.Request{Addr: 0x00, Write: true, Eviction: true})
	u.Access(mem.Request{Addr: 0x40, Write: true, Eviction: true})
	// Force eviction of page 0 by filling the set.
	var last []mem.Op
	for i := 1; i <= 4; i++ {
		last = u.Access(mem.Request{Addr: mem.Addr(i) * stride}).Ops
	}
	wb := 0
	for _, op := range last {
		if op.Target == mem.OffPackage && op.Write && op.Class == mem.ClassReplacement {
			wb += op.Bytes
		}
	}
	if wb != 2*mem.LineBytes {
		t.Fatalf("dirty writeback bytes %d, want %d", wb, 2*mem.LineBytes)
	}
}

func TestEvictionProbe(t *testing.T) {
	u := newTest()
	res := u.Access(mem.Request{Addr: 0xA000, Write: true, Eviction: true})
	if res.Hit {
		t.Fatal("eviction hit empty cache")
	}
	if got := bytesTo(res.Ops, mem.InPackage); got != 32 {
		t.Fatalf("eviction probe bytes %d, want 32 (tag only)", got)
	}
	// Resident case: write goes in-package.
	u.Access(mem.Request{Addr: 0xB000})
	res = u.Access(mem.Request{Addr: 0xB000, Write: true, Eviction: true})
	if !res.Hit || bytesTo(res.Ops, mem.InPackage) != 96 {
		t.Fatalf("resident eviction wrong: hit=%v bytes=%d", res.Hit, bytesTo(res.Ops, mem.InPackage))
	}
}

func TestWholePageHitsAfterFill(t *testing.T) {
	// Perfect footprint idealization: once a page is resident, any line
	// of it hits (the predictor fetched what will be touched).
	u := newTest()
	u.Access(mem.Request{Addr: 0xC000})
	for l := 0; l < mem.LinesPerPage; l++ {
		if !u.Access(mem.Request{Addr: 0xC000 + mem.Addr(l*64)}).Hit {
			t.Fatalf("line %d missed on resident page", l)
		}
	}
}
