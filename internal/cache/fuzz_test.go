package cache

import (
	"testing"

	"banshee/internal/mem"
)

// refLine is one resident line of the reference model.
type refLine struct {
	addr  mem.Addr // line-aligned
	dirty bool
	meta  uint8
}

// refCache is the differential reference for FuzzCacheLRU: one slice
// per set, kept in recency order with the LRU victim last. A line
// moves to the front on every demand hit and on insertion. It mirrors
// the Access/Fill/write/meta semantics of Cache and nothing of its
// storage.
type refCache struct {
	ways  int
	sets  [][]refLine
	stats Stats
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{ways: ways, sets: make([][]refLine, sets)}
}

func (r *refCache) find(a mem.Addr) (set []refLine, si, i int) {
	la := mem.LineAddr(a)
	si = int(uint64(la)>>6) & (len(r.sets) - 1)
	set = r.sets[si]
	for i := range set {
		if set[i].addr == la {
			return set, si, i
		}
	}
	return set, si, -1
}

// insert puts a's line at the front of its set, returning the dirty
// line it displaced, if any.
func (r *refCache) insert(si int, a mem.Addr, dirty bool, meta uint8) *Eviction {
	set := r.sets[si]
	var ev *Eviction
	if len(set) == r.ways {
		v := set[len(set)-1]
		set = set[:len(set)-1]
		if v.dirty {
			ev = &Eviction{Addr: v.addr, Dirty: true, Meta: v.meta}
		}
	}
	r.sets[si] = append([]refLine{{addr: mem.LineAddr(a), dirty: dirty, meta: meta}}, set...)
	return ev
}

func (r *refCache) Access(a mem.Addr, write bool, meta uint8) (bool, *Eviction) {
	r.stats.Accesses++
	set, si, i := r.find(a)
	if i >= 0 {
		l := set[i]
		if write {
			l.dirty, l.meta = true, meta
		}
		copy(set[1:i+1], set[:i])
		set[0] = l
		return true, nil
	}
	r.stats.Misses++
	return false, r.insert(si, a, write, meta)
}

func (r *refCache) Fill(a mem.Addr, dirty bool, meta uint8) *Eviction {
	set, si, i := r.find(a)
	if i >= 0 {
		set[i].dirty = set[i].dirty || dirty
		set[i].meta = meta
		return nil
	}
	return r.insert(si, a, dirty, meta)
}

func (r *refCache) occupancy() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// FuzzCacheLRU checks Cache against refCache on arbitrary operation
// streams. The input decodes as a 6-byte header — ways from {1, 2, 4,
// 8, 16}, 1–64 sets, a mode byte, and high address bits so tags reach
// past the set index — followed by 2-byte operations: an op byte (bit 0
// Access/Fill, bit 1 write/dirty, bits 2–7 meta) and a line number.
// Bit 1 of the mode byte selects the wide mode: tags sit just under the
// line word's 48-bit packing limit, reaching 2^48−1, and the meta bits
// are sign-extended so metas reach 255; the byte's other bits once chose
// the replacement policy and are ignored (so saved corpus entries keep
// their meaning). After every operation the hit bit, the eviction
// (address, dirty bit and meta, all read back from the packed word) and
// Stats (accesses and misses) must agree.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{3, 3, 0, 0, 0, 0, 0, 0, 2, 8, 1, 16, 3, 24, 0, 32, 0, 0, 6, 40})
	f.Add([]byte{3, 3, 1, 0, 0, 0, 0, 0, 2, 8, 1, 16, 3, 24, 0, 32, 0, 0, 6, 40})
	f.Add([]byte{0, 0, 0, 9, 9, 9, 2, 1, 3, 2, 0, 1, 1, 1, 6, 3})
	f.Add([]byte{4, 6, 0, 0xff, 0xff, 0x7f, 7, 0, 7, 64, 7, 128, 7, 192, 2, 0, 3, 1})
	// Two long streams per geometry, then two more in wide mode, over a
	// line range about three times the capacity of a 2-set cache, so
	// hits, write-backs and LRU refreshes all occur in every way count.
	for _, wide := range []byte{0, 2} {
		for w := byte(0); w < 5; w++ {
			for p := byte(0); p < 2; p++ {
				stream := []byte{w, 1, p | wide, 1, 2, 3}
				x := uint32(w)*2 + uint32(p) + 1 + uint32(wide)<<4
				for i := 0; i < 400; i++ {
					x = x*1664525 + 1013904223
					stream = append(stream, byte(x>>24), byte(x>>8)%(6<<w))
				}
				f.Add(stream)
			}
		}
	}
	// Wide mode, one 1-way set: dirty lines with metas 255 and 0 at tags
	// 2^48−1, 2^48−2 and 2^48−256 evict each other in turn.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 0xfe, 255, 0x02, 0, 0xff, 254, 0x03, 255, 0xfe, 1, 0x02, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		ways := [...]int{1, 2, 4, 8, 16}[int(data[0])%5]
		setBits := uint(data[1]) % 7
		sets := 1 << setBits
		wide := data[2]&2 != 0
		high := mem.Addr(uint64(data[3])|uint64(data[4])<<8|uint64(data[5])<<16) << 24
		if wide {
			// A line's tag is this base plus line>>setBits ≤ 255.
			high = mem.Addr(1<<maxTagBits-256-uint64(data[3])) << (6 + setBits)
		}
		c := New(Config{Name: "fuzz", SizeBytes: sets * ways * 64, Ways: ways, LineBytes: 64})
		ref := newRefCache(sets, ways)
		ops := data[6:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, line := ops[i], ops[i+1]
			flag, meta := op&2 != 0, op>>2
			if wide {
				meta = uint8(int8(op) >> 2)
			}
			// The offset inside the line must not matter.
			a := high + mem.Addr(line)<<6 + mem.Addr(op&63)
			var hit, wantHit bool
			var ev, want *Eviction
			if op&1 == 0 {
				hit, ev = c.Access(a, flag, meta)
				wantHit, want = ref.Access(a, flag, meta)
			} else {
				ev = c.Fill(a, flag, meta)
				want = ref.Fill(a, flag, meta)
			}
			if hit != wantHit {
				t.Fatalf("op %d (%#x at %#x): hit %v, reference %v", i/2, op, a, hit, wantHit)
			}
			if (ev == nil) != (want == nil) || ev != nil && *ev != *want {
				t.Fatalf("op %d (%#x at %#x): eviction %+v, reference %+v", i/2, op, a, ev, want)
			}
			if st := c.Stats(); st != ref.stats {
				t.Fatalf("op %d (%#x at %#x): stats %+v, reference %+v", i/2, op, a, st, ref.stats)
			}
		}
		if got, want := c.Occupancy(), ref.occupancy(); got != want {
			t.Fatalf("occupancy %d, reference %d", got, want)
		}
		for _, set := range ref.sets {
			for _, l := range set {
				if !c.Lookup(l.addr) {
					t.Fatalf("line %#x resident in the reference, absent from the cache", l.addr)
				}
			}
		}
	})
}
