package cameo

import (
	"testing"

	"banshee/internal/mem"
)

// refSlot is the reference's occupant of one congruence group's slot.
type refSlot struct {
	line  uint64
	dirty bool
}

// refCAMEO is the differential reference for FuzzCAMEOReference: a map
// from slot index to its occupant's full line number, with CAMEO's
// swap and write-back rules and nothing of its packed tag words.
type refCAMEO struct {
	mask  uint64
	slots map[uint64]refSlot
}

// access applies one request and returns the hit bit and the address
// of the line it writes off-package, if any.
func (r *refCAMEO) access(addr mem.Addr, eviction bool) (hit bool, wb mem.Addr, wrote bool) {
	line := mem.LineNum(addr)
	s, ok := r.slots[line&r.mask]
	hit = ok && s.line == line
	switch {
	case hit && eviction:
		r.slots[line&r.mask] = refSlot{line, true}
		return true, 0, false
	case hit:
		return true, 0, false
	case eviction:
		return false, mem.LineAddr(addr), true
	}
	r.slots[line&r.mask] = refSlot{line: line}
	return false, mem.LineBase(s.line), ok
}

// FuzzCAMEOReference checks CAMEO's packed slot table against refCAMEO
// on mixed demand and eviction streams. The input decodes as a 2-byte
// header — a mode byte (bit 0 wide, bits 2–3 capacity 2^12–2^14 slots)
// and a slot-index base — followed by 2-byte operations: an op byte
// (bit 0 eviction, bits 1–3 one of eight tags, bits 4–7 the offset
// inside the line) and a slot offset. Normal mode uses tags 0–7; wide
// mode uses the eight tags below the 2^30 limit of the slot word. After
// every operation the hit bit, the address of the occupant swapped out
// (rebuilt from its tag and slot index) or of the write-back, and the
// touched slot's word must agree with the reference.
func FuzzCAMEOReference(f *testing.F) {
	for mode := byte(0); mode < 16; mode++ {
		stream := []byte{mode, 0}
		x := uint32(mode) + 1
		for i := 0; i < 300; i++ {
			x = x*1664525 + 1013904223
			stream = append(stream, byte(x>>24), byte(x>>8)%8)
		}
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, base := data[0], uint64(data[1])
		setBits := uint(12 + (mode>>2&3)%3)
		c := New(Config{CapacityBytes: 1 << setBits * mem.LineBytes})
		ref := &refCAMEO{mask: 1<<setBits - 1, slots: map[uint64]refSlot{}}
		ops := data[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			tag := uint64(op>>1) & 7
			if mode&1 != 0 {
				tag = 1<<maxTagBits - 1 - tag
			}
			set := (base + uint64(ops[i+1])) & ref.mask
			addr := mem.LineBase(tag<<setBits|set) + mem.Addr(op>>4)
			ev := op&1 != 0
			res := c.Access(mem.Request{Addr: addr, Eviction: ev, Write: ev})
			hit, wb, wrote := ref.access(addr, ev)
			if res.Hit != hit {
				t.Fatalf("op %d (%#x at %#x): hit %v, reference %v", i/2, op, addr, res.Hit, hit)
			}
			var gotWB []mem.Addr
			for _, o := range res.Ops {
				if o.Target == mem.OffPackage && o.Write {
					gotWB = append(gotWB, o.Addr)
				}
			}
			if wrote && (len(gotWB) != 1 || gotWB[0] != wb) || !wrote && len(gotWB) != 0 {
				t.Fatalf("op %d (%#x at %#x): off-package writes %#x, reference %#x (%v)", i/2, op, addr, gotWB, wb, wrote)
			}
			w, s := c.slots[set], ref.slots[set]
			if _, ok := ref.slots[set]; ok != (w != 0) || ok && (uint64(w>>1-1) != s.line>>setBits || w&1 != 0 != s.dirty) {
				t.Fatalf("op %d (%#x at %#x): slot %d word %#x, reference %+v", i/2, op, addr, set, w, s)
			}
		}
		for set, s := range ref.slots {
			if !c.Resident(s.line) {
				t.Fatalf("line %#x occupies slot %d in the reference, not in CAMEO", s.line, set)
			}
		}
	})
}

// TestSlotWordLimits: a capacity below 2^12 slots cannot be built, so a
// 48-bit address always has a tag under 2^30. A wider tag still probes
// correctly (it is not resident, and never aliases tag 0, whose line
// holds the same slot), and swapping it in panics instead of truncating
// it.
func TestSlotWordLimits(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a capacity of 2^11 slots did not panic")
			}
		}()
		New(Config{CapacityBytes: MinCapacityBytes / 2})
	}()
	c := New(Config{CapacityBytes: MinCapacityBytes})
	const set = 5
	c.Access(mem.Request{Addr: mem.LineBase(set)}) // tag 0 swaps in
	wide := uint64(1<<maxTagBits<<12 | set)
	if c.Resident(wide) {
		t.Fatal("a 2^30 tag reads as resident in the slot holding tag 0")
	}
	if res := c.Access(mem.Request{Addr: mem.LineBase(wide), Eviction: true, Write: true}); res.Hit {
		t.Fatal("a 2^30 tag hit the slot holding tag 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("swapping in a 2^30 tag did not panic")
			}
		}()
		c.Access(mem.Request{Addr: mem.LineBase(wide)})
	}()
	if !c.Resident(set) {
		t.Fatal("tag 0 lost its slot to the refused swap")
	}
}
