package hma

import (
	"testing"

	"banshee/internal/mem"
)

func newTest(epoch uint64) *HMA {
	cfg := DefaultConfig(16 * mem.PageBytes)
	cfg.EpochAccesses = epoch
	return New(cfg)
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{CapacityBytes: 10, EpochAccesses: 1 << 18}, // smaller than one page
		{CapacityBytes: 16 * mem.PageBytes, EpochAccesses: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestColdMissesGoOffPackage(t *testing.T) {
	h := newTest(1000)
	res := h.Access(mem.Request{Addr: 0x1000})
	if res.Hit {
		t.Fatal("cold access hit")
	}
	op := res.Ops[0]
	if op.Target != mem.OffPackage || op.Bytes != 64 || !op.Critical {
		t.Fatalf("miss op = %+v", op)
	}
	// Table 1: HMA misses carry no probe overhead (mapping in PTE).
	if len(res.Ops) != 1 {
		t.Fatalf("HMA miss generated %d ops, want 1", len(res.Ops))
	}
}

func TestEpochMovesHotPages(t *testing.T) {
	h := newTest(100)
	// 10 hot pages accessed repeatedly, others once.
	for i := 0; i < 100; i++ {
		page := uint64(i % 10)
		h.Access(mem.Request{Addr: mem.Addr(page) << mem.PageOffsetBits})
	}
	if h.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", h.Epochs())
	}
	if h.Resident() != 10 {
		t.Fatalf("resident %d, want 10 hot pages", h.Resident())
	}
	// After the epoch, hot pages hit in-package.
	res := h.Access(mem.Request{Addr: 0})
	if !res.Hit {
		t.Fatal("hot page not cached after epoch")
	}
}

func TestEpochChargesStopTheWorld(t *testing.T) {
	h := newTest(50)
	var sw bool
	for i := 0; i < 50; i++ {
		res := h.Access(mem.Request{Addr: mem.Addr(i%5) << mem.PageOffsetBits})
		for _, c := range res.SW {
			if c.AllCoresCycles > 0 {
				sw = true
			}
		}
	}
	if !sw {
		t.Fatal("epoch did not stall all cores")
	}
}

func TestEpochMoveTraffic(t *testing.T) {
	h := newTest(60)
	var moveBytes int
	for i := 0; i < 60; i++ {
		res := h.Access(mem.Request{Addr: mem.Addr(i%3) << mem.PageOffsetBits})
		for _, op := range res.Ops {
			if op.Class == mem.ClassReplacement {
				moveBytes += op.Bytes
			}
		}
	}
	// 3 hot pages moved in: read 4 KB off + write 4 KB in, each.
	if moveBytes != 3*2*mem.PageBytes {
		t.Fatalf("move traffic %d, want %d", moveBytes, 3*2*mem.PageBytes)
	}
}

func TestColdPagesEvictedNextEpoch(t *testing.T) {
	h := newTest(100)
	// Epoch 1: pages 0..9 hot.
	for i := 0; i < 100; i++ {
		h.Access(mem.Request{Addr: mem.Addr(i%10) << mem.PageOffsetBits})
	}
	// Epoch 2: pages 100..109 hot; old ones untouched.
	for i := 0; i < 100; i++ {
		h.Access(mem.Request{Addr: mem.Addr(100+i%10) << mem.PageOffsetBits})
	}
	if h.Access(mem.Request{Addr: 0}).Hit {
		t.Fatal("cold page survived the epoch swap")
	}
	if !h.Access(mem.Request{Addr: 100 << mem.PageOffsetBits}).Hit {
		t.Fatal("new hot page not resident")
	}
}

func TestDirtyEvictionRouting(t *testing.T) {
	h := newTest(100)
	for i := 0; i < 100; i++ {
		h.Access(mem.Request{Addr: mem.Addr(i%4) << mem.PageOffsetBits})
	}
	res := h.Access(mem.Request{Addr: 0, Write: true, Eviction: true})
	if !res.Hit || res.Ops[0].Target != mem.InPackage {
		t.Fatal("eviction to cached page must write in-package")
	}
	res = h.Access(mem.Request{Addr: 1 << 30, Write: true, Eviction: true})
	if res.Hit || res.Ops[0].Target != mem.OffPackage {
		t.Fatal("eviction to uncached page must write off-package")
	}
}

func TestSingleTouchPagesNotMoved(t *testing.T) {
	h := newTest(100)
	// 100 distinct pages, one touch each: none worth moving.
	for i := 0; i < 100; i++ {
		h.Access(mem.Request{Addr: mem.Addr(i) << mem.PageOffsetBits})
	}
	if h.Resident() != 0 {
		t.Fatalf("%d single-touch pages were moved in", h.Resident())
	}
}

func TestCapacityRespected(t *testing.T) {
	h := newTest(1000)
	// 50 hot pages, capacity 16.
	for i := 0; i < 1000; i++ {
		h.Access(mem.Request{Addr: mem.Addr(i%50) << mem.PageOffsetBits})
	}
	if h.Resident() > 16 {
		t.Fatalf("resident %d exceeds capacity 16", h.Resident())
	}
}
