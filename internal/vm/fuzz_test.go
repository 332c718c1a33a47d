package vm

import (
	"testing"

	"banshee/internal/mem"
)

// refTable is the differential reference for FuzzPageTable: a builtin
// map from page number (at the table's page size) to PTE. It mirrors
// the semantics of PageTable and nothing of its storage.
type refTable struct {
	defaultLarge bool
	entries      map[uint64]PTE
}

// key returns the page key vaddr translates under.
func (r *refTable) key(vaddr mem.Addr) uint64 {
	if r.defaultLarge {
		return mem.LargePageNum(vaddr)
	}
	return mem.PageNum(vaddr)
}

// addr returns the base address of the page with the given key.
func (r *refTable) addr(key uint64) mem.Addr {
	if r.defaultLarge {
		return mem.Addr(key << mem.LargeOffsetBits)
	}
	return mem.Addr(key << mem.PageOffsetBits)
}

func (r *refTable) translate(vaddr mem.Addr) PTE {
	key := r.key(vaddr)
	e, ok := r.entries[key]
	if !ok {
		r.entries[key] = e
	}
	return e
}

func (r *refTable) setCached(frame uint64, cached bool, way uint8) int {
	if _, ok := r.entries[frame]; !ok {
		return 0
	}
	r.entries[frame] = PTE{Cached: cached, Way: way}
	return 1
}

// FuzzPageTable checks PageTable against refTable on arbitrary call
// sequences. The input decodes as a 1-byte header (bit 0 sets
// DefaultLarge) followed by 4-byte operations: an op byte, a 16-bit
// little-endian page number folded into 2048 pages (four 2 MB
// regions), and a selector byte. The op byte's low two bits pick the
// call:
//
//   - 0, 1: Translate at an offset within the page;
//   - 2: SetCached, with cached from bit 3 and way from bits 4–5;
//   - 3: Translate of a page seen before.
//
// SetCached takes its page from the page keys of earlier translations,
// so it reaches allocated 4 KB and 2 MB pages alike; with bit 7 of the
// op byte set it takes the decoded page number instead, usually an
// unallocated page (under DefaultLarge only page numbers 0–3 exist). Every result and Len must agree after each
// operation, and at the end every page must translate alike.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0, 0, 2, 0xBC, 0x0A, 0, 0x1a, 0, 0, 0, 3, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 5, 2, 0, 0x3a, 9, 0, 0, 0x82, 0, 0, 0, 3, 0, 0, 1})
	f.Add([]byte{1, 0, 0x34, 0x12, 0, 0x2a, 1, 0, 0, 0x8a, 0x40, 0x12, 0, 3, 0, 0, 0})
	// One long stream per DefaultLarge setting over the whole mix.
	for h := byte(0); h < 2; h++ {
		stream := []byte{h}
		x := uint32(h) + 1
		for i := 0; i < 300; i++ {
			x = x*1664525 + 1013904223
			stream = append(stream, byte(x>>24), byte(x>>16), byte(x>>8)&7, byte(x))
		}
		f.Add(stream)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		pt := NewPageTable()
		pt.DefaultLarge = data[0]&1 != 0
		ref := &refTable{defaultLarge: pt.DefaultLarge, entries: map[uint64]PTE{}}
		var seen []uint64 // page keys of earlier translations
		ops := data[1:]
		for i := 0; i+3 < len(ops); i += 4 {
			op, sel := ops[i], ops[i+3]
			page := (uint64(ops[i+1]) | uint64(ops[i+2])<<8) & 0x7ff
			frame := page
			if op&0x80 == 0 && len(seen) > 0 {
				frame = seen[int(sel)%len(seen)]
			}
			addr := mem.Addr(page<<mem.PageOffsetBits | uint64(sel)<<4)
			switch op & 3 {
			case 0, 1, 3:
				if op&3 == 3 && len(seen) > 0 {
					addr = ref.addr(frame)
				}
				got, want := pt.Translate(addr), ref.translate(addr)
				if got != want {
					t.Fatalf("op %d: Translate(%#x) = %+v, reference %+v", i/4, addr, got, want)
				}
				seen = append(seen, ref.key(addr))
			case 2:
				cached, way := op&8 != 0, (op>>4)&3
				if got, want := pt.SetCached(frame, cached, way), ref.setCached(frame, cached, way); got != want {
					t.Fatalf("op %d: SetCached(%#x) touched %d, reference %d", i/4, frame, got, want)
				}
			}
			if got, want := pt.Len(), len(ref.entries); got != want {
				t.Fatalf("op %d: Len %d, reference %d", i/4, got, want)
			}
		}
		for key, e := range ref.entries {
			if got := pt.Translate(ref.addr(key)); got != e {
				t.Fatalf("page key %#x: Translate %+v, reference %+v", key, got, e)
			}
		}
		if got, want := pt.Len(), len(ref.entries); got != want {
			t.Fatalf("Len %d, reference %d", got, want)
		}
	})
}
