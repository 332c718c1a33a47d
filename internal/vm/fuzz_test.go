package vm

import (
	"fmt"
	"slices"
	"testing"

	"banshee/internal/mem"
)

// refTable is the differential reference for FuzzPageTable: a builtin
// map from vpage to an individually allocated PTE, plus each frame's
// PTEs in mapping order. It mirrors the semantics of PageTable and
// nothing of its storage.
type refTable struct {
	defaultLarge bool
	large        map[uint64]bool
	entries      map[uint64]*PTE
	reverse      map[uint64][]*PTE
}

func newRefTable(defaultLarge bool) *refTable {
	return &refTable{
		defaultLarge: defaultLarge,
		large:        map[uint64]bool{},
		entries:      map[uint64]*PTE{},
		reverse:      map[uint64][]*PTE{},
	}
}

// key returns the vpage vaddr translates under, and its page size.
func (r *refTable) key(vaddr mem.Addr) (uint64, mem.PageSize) {
	if r.defaultLarge || r.large[mem.LargePageNum(vaddr)] {
		return mem.LargePageNum(vaddr) * mem.PagesPerLargePage, mem.Page2M
	}
	return mem.PageNum(vaddr), mem.Page4K
}

func (r *refTable) translate(vaddr mem.Addr) PTE {
	key, size := r.key(vaddr)
	e, ok := r.entries[key]
	if !ok {
		e = &PTE{VPage: key, Frame: key, Size: size}
		r.entries[key] = e
		r.reverse[key] = append(r.reverse[key], e)
	}
	return *e
}

func (r *refTable) alias(vpage, frame uint64) (PTE, error) {
	if _, ok := r.entries[vpage]; ok {
		return PTE{}, fmt.Errorf("vm: vpage %#x already mapped", vpage)
	}
	l := r.reverse[frame]
	if len(l) == 0 {
		return PTE{}, fmt.Errorf("vm: frame %#x not allocated", frame)
	}
	e := &PTE{VPage: vpage, Frame: frame, Size: l[0].Size, Cached: l[0].Cached, Way: l[0].Way}
	r.entries[vpage] = e
	r.reverse[frame] = append(l, e)
	return *e, nil
}

func (r *refTable) setCached(frame uint64, cached bool, way uint8) int {
	for _, e := range r.reverse[frame] {
		e.Cached, e.Way = cached, way
	}
	return len(r.reverse[frame])
}

func (r *refTable) reverseLookup(frame uint64) []PTE {
	var out []PTE
	for _, e := range r.reverse[frame] {
		out = append(out, *e)
	}
	return out
}

// FuzzPageTable checks PageTable against refTable on arbitrary call
// sequences. The input decodes as a 1-byte header (bit 0 sets
// DefaultLarge) followed by 4-byte operations: an op byte, a 16-bit
// little-endian page number folded into 2048 pages (four 2 MB
// regions), and a selector byte. The op byte's low three bits pick the
// call:
//
//   - 0, 1: Translate at an offset within the page;
//   - 2: DeclareLargeRegion;
//   - 3: Alias of the page onto a frame;
//   - 4: SetCached, with cached from bit 3 and way from bits 4–5;
//   - 5: ReverseLookup;
//   - 6, 7: Translate of a page seen before.
//
// Alias, SetCached and ReverseLookup take their frame from the vpages
// of earlier results, so they reach own frames, alias pages (not
// frames) and large-page frames; with bit 7 of the op byte set they
// take the page number instead, usually an unallocated frame. Every
// result and Len must agree after each operation, and at the end every
// page must translate, and every frame reverse-map, alike.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{0, 0, 7, 0, 0, 3, 0xBC, 0x0A, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 1})
	f.Add([]byte{0, 2, 0, 2, 0, 0, 5, 2, 0, 3, 9, 0, 0, 0x1c, 0, 0, 0, 5, 0, 0, 1, 0x83, 0, 1, 0})
	f.Add([]byte{1, 0, 0x34, 0x12, 0, 3, 1, 0, 0, 0x2c, 0, 0, 0, 5, 0, 0, 0})
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
		ref := newRefTable(pt.DefaultLarge)
		var seen []uint64 // vpages of earlier results
		ops := data[1:]
		for i := 0; i+3 < len(ops); i += 4 {
			op, sel := ops[i], ops[i+3]
			page := (uint64(ops[i+1]) | uint64(ops[i+2])<<8) & 0x7ff
			frame := page
			if op&0x80 == 0 && len(seen) > 0 {
				frame = seen[int(sel)%len(seen)]
			}
			addr := mem.Addr(page<<mem.PageOffsetBits | uint64(sel)<<4)
			switch op & 7 {
			case 0, 1, 6, 7:
				if op&6 == 6 && len(seen) > 0 {
					addr = mem.Addr(frame << mem.PageOffsetBits)
				}
				got, want := pt.Translate(addr), ref.translate(addr)
				if got != want {
					t.Fatalf("op %d: Translate(%#x) = %+v, reference %+v", i/4, addr, got, want)
				}
				seen = append(seen, got.VPage)
			case 2:
				pt.DeclareLargeRegion(addr)
				ref.large[mem.LargePageNum(addr)] = true
			case 3:
				got, err := pt.Alias(page, frame)
				want, werr := ref.alias(page, frame)
				if fmt.Sprint(err) != fmt.Sprint(werr) || got != want {
					t.Fatalf("op %d: Alias(%#x, %#x) = %+v, %v; reference %+v, %v",
						i/4, page, frame, got, err, want, werr)
				}
				if err == nil {
					seen = append(seen, got.VPage)
				}
			case 4:
				cached, way := op&8 != 0, (op>>4)&3
				if got, want := pt.SetCached(frame, cached, way), ref.setCached(frame, cached, way); got != want {
					t.Fatalf("op %d: SetCached(%#x) touched %d, reference %d", i/4, frame, got, want)
				}
			case 5:
				if got, want := pt.ReverseLookup(frame), ref.reverseLookup(frame); !slices.Equal(got, want) {
					t.Fatalf("op %d: ReverseLookup(%#x) = %+v, reference %+v", i/4, frame, got, want)
				}
			}
			if got, want := pt.Len(), len(ref.entries); got != want {
				t.Fatalf("op %d: Len %d, reference %d", i/4, got, want)
			}
		}
		for vpage, e := range ref.entries {
			addr := mem.Addr(vpage << mem.PageOffsetBits)
			if key, _ := ref.key(addr); key != vpage {
				continue // a large region covers it: unreachable by address
			}
			if got := pt.Translate(addr); got != *e {
				t.Fatalf("vpage %#x: Translate %+v, reference %+v", vpage, got, *e)
			}
		}
		for frame := range ref.reverse {
			if got, want := pt.ReverseLookup(frame), ref.reverseLookup(frame); !slices.Equal(got, want) {
				t.Fatalf("frame %#x: ReverseLookup %+v, reference %+v", frame, got, want)
			}
		}
		if got, want := pt.Len(), len(ref.entries); got != want {
			t.Fatalf("Len %d, reference %d", got, want)
		}
	})
}
