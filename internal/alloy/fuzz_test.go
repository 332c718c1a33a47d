package alloy

import (
	"testing"

	"banshee/internal/mem"
	"banshee/internal/util"
)

// refLine is the reference's resident line of one set.
type refLine struct {
	tag   uint64
	dirty bool
}

// refAlloy is the differential reference for FuzzAlloyReference: a
// map from set to its resident line, with Alloy's hit, fill and
// write-back rules and nothing of its packed storage. It draws its fill
// decisions from a copy of the scheme's RNG, taken before either runs.
type refAlloy struct {
	setBits uint
	lines   map[uint64]refLine
	rng     util.RNG
	fillP   float64
}

// access applies one request and returns the hit bit and the address
// of the line it writes off-package, if any.
func (r *refAlloy) access(addr mem.Addr, eviction bool) (hit bool, wb mem.Addr, wrote bool) {
	ln := mem.LineNum(addr)
	set, tag := ln&(1<<r.setBits-1), ln>>r.setBits
	l, ok := r.lines[set]
	hit = ok && l.tag == tag
	if eviction {
		if hit {
			r.lines[set] = refLine{tag, true}
			return true, 0, false
		}
		return false, mem.LineAddr(addr), true
	}
	if hit || !r.rng.Bool(r.fillP) {
		return hit, 0, false
	}
	r.lines[set] = refLine{tag: tag}
	if ok && l.dirty {
		return false, mem.LineBase(l.tag<<r.setBits | set), true
	}
	return false, 0, false
}

// FuzzAlloyReference checks Alloy's packed line table against refAlloy
// on mixed demand and eviction streams. The input decodes as a 2-byte
// header — a mode byte (bit 0 wide, bit 1 fill probability 0.1, bits
// 2–3 capacity 2^12–2^14 lines) and a set-index base — followed by
// 2-byte operations: an op byte (bit 0 eviction, bits 1–3 one of eight
// tags, bits 4–7 the offset inside the line) and a set offset. Normal
// mode uses tags 0–7; wide mode uses the eight tags below the 2^30
// limit of the line word. After every operation the hit bit, the
// off-package write-back address and the touched set's word must agree
// with the reference.
func FuzzAlloyReference(f *testing.F) {
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
		cfg := Config{CapacityBytes: 1 << setBits * mem.LineBytes, FillProb: 1, Seed: uint64(base)}
		if mode&2 != 0 {
			cfg.FillProb = 0.1
		}
		a := New(cfg)
		ref := &refAlloy{setBits: setBits, lines: map[uint64]refLine{}, rng: *a.rng, fillP: cfg.FillProb}
		ops := data[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			tag := uint64(op>>1) & 7
			if mode&1 != 0 {
				tag = 1<<maxTagBits - 1 - tag
			}
			set := (base + uint64(ops[i+1])) & (1<<setBits - 1)
			addr := mem.LineBase(tag<<setBits|set) + mem.Addr(op>>4)
			ev := op&1 != 0
			res := a.Access(mem.Request{Addr: addr, Eviction: ev, Write: ev})
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
			w, l := a.sets[set], ref.lines[set]
			if _, ok := ref.lines[set]; ok != (w != 0) || ok && (uint64(w>>1-1) != l.tag || w&1 != 0 != l.dirty) {
				t.Fatalf("op %d (%#x at %#x): set %d word %#x, reference %+v", i/2, op, addr, set, w, l)
			}
		}
		if got, want := a.Occupancy(), len(ref.lines); got != want {
			t.Fatalf("occupancy %d, reference %d", got, want)
		}
	})
}

// TestLineWordLimits: a capacity below 2^12 lines cannot be built, so
// a 48-bit address always has a tag under 2^30. A wider tag still
// probes correctly (it misses, and never aliases tag 0, whose line is
// in the same set), and filling it panics instead of truncating it.
func TestLineWordLimits(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a capacity of 2^11 lines did not panic")
			}
		}()
		New(Config{CapacityBytes: MinCapacityBytes / 2, FillProb: 1})
	}()
	a := New(Config{CapacityBytes: MinCapacityBytes, FillProb: 1})
	const set = 5
	a.Access(mem.Request{Addr: mem.LineBase(set)}) // tag 0 fills
	wide := mem.LineBase(1<<maxTagBits<<12 | set)
	if res := a.Access(mem.Request{Addr: wide, Eviction: true, Write: true}); res.Hit {
		t.Fatal("a 2^30 tag hit the set holding tag 0")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("filling a 2^30 tag did not panic")
			}
		}()
		a.Access(mem.Request{Addr: wide})
	}()
	if res := a.Access(mem.Request{Addr: mem.LineBase(set)}); !res.Hit {
		t.Fatal("tag 0 lost its line to the refused fill")
	}
}
