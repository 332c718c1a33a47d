package util

import (
	"math/rand"
	"sort"
	"testing"
)

// oracleOp is one step of a Flat64-versus-builtin-map oracle stream.
type oracleOp uint8

const (
	opPut    oracleOp = iota // store v under k
	opPtr                    // increment k's value in place, inserting it first
	opDelete                 // remove k, present or not
	opGet                    // read k through Get and GetPtr
	opRange                  // compare the whole map: Len, every Get, Range
	opClear                  // remove every entry
	numOracleOps
)

// applyOracle applies op to m and to oracle, a builtin map fed the
// same stream, and fails t as soon as the two disagree on a result.
func applyOracle(t testing.TB, m *Flat64[int], oracle map[uint64]int, op oracleOp, k uint64, v int) {
	t.Helper()
	switch op {
	case opPut:
		m.Put(k, v)
		oracle[k] = v
	case opPtr:
		*m.Ptr(k)++
		oracle[k]++
	case opDelete:
		got := m.Delete(k)
		_, want := oracle[k]
		if got != want {
			t.Fatalf("Delete(%#x) = %v, oracle %v", k, got, want)
		}
		delete(oracle, k)
	case opGet:
		want, wantOK := oracle[k]
		if got, ok := m.Get(k); ok != wantOK || got != want {
			t.Fatalf("Get(%#x) = %d,%v, oracle %d,%v", k, got, ok, want, wantOK)
		}
		if p := m.GetPtr(k); (p != nil) != wantOK || p != nil && *p != want {
			t.Fatalf("GetPtr(%#x) disagrees with oracle %d,%v", k, want, wantOK)
		}
	case opRange:
		checkAgainstOracle(t, m, oracle)
	case opClear:
		m.Clear()
		clear(oracle)
	}
	if m.Len() != len(oracle) {
		t.Fatalf("after op %d on %#x: Len = %d, oracle %d", op, k, m.Len(), len(oracle))
	}
}

// TestFlat64Oracle drives a Flat64 and a builtin map through the same
// randomized operation stream — inserts, overwrites, in-place counter
// updates, deletes (present and absent), reads, clears — and checks
// full agreement after every batch. Key distributions are chosen to
// force probe-chain collisions (dense small integers, shifted page
// numbers, random 64-bit), since backward-shift deletion bugs only show
// up when chains overlap.
func TestFlat64Oracle(t *testing.T) {
	keyGens := map[string]func(r *rand.Rand) uint64{
		"dense":  func(r *rand.Rand) uint64 { return uint64(r.Intn(200)) },
		"pages":  func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) << 12 },
		"sparse": func(r *rand.Rand) uint64 { return r.Uint64() },
	}
	for name, gen := range keyGens {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(name))))
			m := NewFlat64[int](0)
			oracle := map[uint64]int{}
			for step := 0; step < 20_000; step++ {
				k := gen(r)
				op := opGet
				switch n := r.Intn(10); {
				case n < 4:
					op = opPut
				case n < 6:
					op = opPtr
				case n < 9:
					op = opDelete
				case r.Intn(300) == 0: // occasional full clear (1 in ~3000)
					op = opClear
				}
				applyOracle(t, m, oracle, op, k, int(r.Int63()))
				if step%500 == 0 {
					applyOracle(t, m, oracle, opRange, 0, 0)
				}
			}
			applyOracle(t, m, oracle, opRange, 0, 0)
		})
	}
}

// FuzzFlat64 checks Flat64 against a builtin map on arbitrary
// operation streams. The input decodes as a 2-byte header — a
// pre-size hint of 0–15 entries and a key shift of 0–63 bits — followed
// by 2-byte operations: an op byte (its value mod numOracleOps picks
// the operation) and a key byte, shifted left by the header's shift.
// Only 256 keys exist per input, so once a few dozen are live, probe
// chains collide and every Delete runs the backward shift over them;
// a shift of 12 gives page-number keys as the page table uses them.
// Every operation's result and the size are checked as it runs, and
// the whole map is compared at the end.
func FuzzFlat64(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 1, 2, 1, 4, 0})
	f.Add([]byte{8, 12, 0, 1, 0, 9, 0, 17, 2, 9, 3, 17, 4, 0, 5, 0, 3, 1})
	// Long streams over a few dozen keys: enough live entries to grow
	// the table several times and to delete inside long probe chains.
	for shift := byte(0); shift < 64; shift += 21 {
		stream := []byte{0, shift}
		x := uint32(shift) + 1
		for i := 0; i < 600; i++ {
			x = x*1664525 + 1013904223
			op := byte(x>>24) % byte(opRange) // Put, Ptr, Delete or Get
			switch {
			case i == 300:
				op = byte(opClear)
			case i%100 == 99:
				op = byte(opRange)
			}
			stream = append(stream, op, byte(x>>8)%48)
		}
		f.Add(stream)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := NewFlat64[int](int(data[0] % 16))
		oracle := map[uint64]int{}
		shift := data[1] % 64
		ops := data[2:]
		for i := 0; i+1 < len(ops); i += 2 {
			op := oracleOp(ops[i] % byte(numOracleOps))
			applyOracle(t, m, oracle, op, uint64(ops[i+1])<<shift, i)
		}
		applyOracle(t, m, oracle, opRange, 0, 0)
	})
}

func checkAgainstOracle(t testing.TB, m *Flat64[int], oracle map[uint64]int) {
	t.Helper()
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", m.Len(), len(oracle))
	}
	for k, want := range oracle {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%#x) = %d,%v, oracle %d", k, got, ok, want)
		}
	}
	// Range must visit exactly the oracle's entries, each once.
	seen := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range visited %#x twice", k)
		}
		seen[k] = v
		return true
	})
	if len(seen) != len(oracle) {
		t.Fatalf("Range visited %d entries, oracle %d", len(seen), len(oracle))
	}
	for k, v := range seen {
		if oracle[k] != v {
			t.Fatalf("Range saw %#x=%d, oracle %d", k, v, oracle[k])
		}
	}
}

// TestFlat64GetAbsent covers the empty and never-allocated cases.
func TestFlat64GetAbsent(t *testing.T) {
	var m Flat64[int]
	if _, ok := m.Get(42); ok {
		t.Error("Get on zero-value map reported a hit")
	}
	if m.Delete(42) {
		t.Error("Delete on zero-value map reported a removal")
	}
	m.Put(1, 10)
	if _, ok := m.Get(2); ok {
		t.Error("Get(2) hit after only Put(1)")
	}
}

// TestFlat64RangeEarlyStop checks Range's stop contract.
func TestFlat64RangeEarlyStop(t *testing.T) {
	m := NewFlat64[int](16)
	for i := uint64(0); i < 10; i++ {
		m.Put(i, int(i))
	}
	calls := 0
	m.Range(func(uint64, int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("Range after stop: %d calls, want 1", calls)
	}
}

// TestFlat64Determinism: two maps fed the same operation sequence must
// iterate identically — the property the simulator's deterministic
// replay relies on when Range feeds op generation.
func TestFlat64Determinism(t *testing.T) {
	build := func() []uint64 {
		m := NewFlat64[int](0)
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 5000; i++ {
			k := uint64(r.Intn(2000))
			if r.Intn(3) == 0 {
				m.Delete(k)
			} else {
				m.Put(k, i)
			}
		}
		var keys []uint64
		m.Range(func(k uint64, _ int) bool { keys = append(keys, k); return true })
		return keys
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration order diverged at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
	// And sorted contents must match a plain set-build.
	sorted := append([]uint64(nil), a...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			t.Fatalf("duplicate key %#x", sorted[i])
		}
	}
}

// TestFlat64GrowthPointers documents the Ptr invalidation contract:
// a value written through a stale pointer after growth must not be
// visible — i.e. the test asserts values survive growth by re-reading.
func TestFlat64GrowthPointers(t *testing.T) {
	m := NewFlat64[int](0)
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, int(i)*3)
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := m.Get(i); !ok || v != int(i)*3 {
			t.Fatalf("after growth: Get(%d) = %d,%v", i, v, ok)
		}
	}
}
