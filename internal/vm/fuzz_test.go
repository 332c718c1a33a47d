package vm

import (
	"slices"
	"testing"

	"banshee/internal/mem"
)

// refTLB is the differential reference for FuzzPageTable: one
// recency-ordered slice of page keys (most recent first) per TLB, with
// the page key computed from the address alone. It mirrors the
// semantics of PageTable.Translate and TLB and nothing of their storage.
type refTLB struct {
	defaultLarge bool
	size         int
	keys         []uint64 // MRU first

	hits, misses uint64
}

// key returns the page key vaddr translates under.
func (r *refTLB) key(vaddr mem.Addr) uint64 {
	if r.defaultLarge {
		return uint64(vaddr) >> mem.LargeOffsetBits
	}
	return uint64(vaddr) >> mem.PageOffsetBits
}

func (r *refTLB) lookup(vaddr mem.Addr) bool {
	k := r.key(vaddr)
	if i := slices.Index(r.keys, k); i >= 0 {
		r.keys = slices.Insert(slices.Delete(r.keys, i, i+1), 0, k)
		r.hits++
		return true
	}
	r.misses++
	r.keys = slices.Insert(r.keys, 0, k)
	if len(r.keys) > r.size {
		r.keys = r.keys[:r.size]
	}
	return false
}

// flush empties the reference (a shootdown).
func (r *refTLB) flush() {
	r.keys = r.keys[:0]
}

// FuzzPageTable checks translation and the TLB over it against refTLB
// on arbitrary call sequences, and the shootdown rule against a second
// refTLB that is flushed at every shootdown. The input decodes as a 1-byte header
// (bit 0 sets DefaultLarge, bits 1–3 give the TLB size minus one)
// followed by 4-byte operations: an op byte, a 16-bit little-endian
// page number folded into 2048 pages (four 2 MB regions), and an
// offset byte. The op byte's low two bits pick the call:
//
//   - 0, 1: TLB.Lookup at an offset within the page;
//   - 2: PageTable.Translate;
//   - 3: a shootdown, which flushes the second reference only.
//
// Every hit bit and frame number must agree, and so must the TLB's
// Hits, Misses and Occupancy after each operation. A lookup hits the
// flushed reference iff it hits the TLB and the page's previous lookup
// came at or after the last shootdown.
func FuzzPageTable(f *testing.F) {
	f.Add([]byte{6, 0, 7, 0, 0, 0, 7, 0, 0x40, 2, 0xBC, 0x0A, 0, 0, 7, 0, 1})
	f.Add([]byte{2, 0, 0, 2, 0, 0, 5, 2, 0, 0, 9, 0, 0, 3, 0, 0, 0, 0, 0, 2, 1})
	f.Add([]byte{1, 0, 0x34, 0x12, 0, 0, 0x34, 0x02, 0xff, 2, 0x40, 0x12, 0, 3, 0, 0, 0})
	// One long stream per DefaultLarge setting over the whole mix: a
	// 4-entry TLB over 128 pages (4 KB) or over the four regions (2 MB).
	for h := byte(0); h < 2; h++ {
		stream := []byte{h | 6}
		x := uint32(h) + 1
		for i := 0; i < 300; i++ {
			x = x*1664525 + 1013904223
			stream = append(stream, byte(x>>24), byte(x>>16)&15, byte(x>>8)&7, byte(x))
		}
		f.Add(stream)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		pt := NewPageTable()
		pt.DefaultLarge = data[0]&1 != 0
		size := int(data[0]>>1&7) + 1
		tlb := NewTLB(size)
		ref := &refTLB{defaultLarge: pt.DefaultLarge, size: size}
		shot := &refTLB{defaultLarge: pt.DefaultLarge, size: size}
		var shotAt uint64 // lookup index of the last shootdown
		ops := data[1:]
		for i := 0; i+3 < len(ops); i += 4 {
			op := ops[i]
			page := (uint64(ops[i+1]) | uint64(ops[i+2])<<8) & 0x7ff
			addr := mem.Addr(page<<mem.PageOffsetBits | uint64(ops[i+3])<<4)
			switch op & 3 {
			case 0, 1:
				got, prev := tlb.Lookup(addr, pt)
				if want := ref.lookup(addr); got != want {
					t.Fatalf("op %d: Lookup(%#x) hit %v, reference %v", i/4, addr, got, want)
				}
				if rule, want := got && prev >= shotAt, shot.lookup(addr); rule != want {
					t.Fatalf("op %d: Lookup(%#x) after a shootdown at lookup %d: rule says hit %v (prev %d), flushed reference %v",
						i/4, addr, shotAt, rule, prev, want)
				}
			case 2:
				if got, want := pt.Translate(addr), ref.key(addr); got != want {
					t.Fatalf("op %d: Translate(%#x) = %#x, reference %#x", i/4, addr, got, want)
				}
			case 3:
				shot.flush()
				shotAt = tlb.Hits + tlb.Misses
			}
			if tlb.Hits != ref.hits || tlb.Misses != ref.misses {
				t.Fatalf("op %d: hits/misses %d/%d, reference %d/%d", i/4,
					tlb.Hits, tlb.Misses, ref.hits, ref.misses)
			}
			if got, want := tlb.Occupancy(), len(ref.keys); got != want {
				t.Fatalf("op %d: Occupancy %d, reference %d", i/4, got, want)
			}
		}
	})
}
