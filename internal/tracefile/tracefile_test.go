package tracefile_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"banshee/internal/errs"
	"banshee/internal/mem"
	"banshee/internal/trace"
	"banshee/internal/tracefile"
	"banshee/internal/workload"
)

// recordBytes captures eventsPerCore events of every core of src into
// an in-memory trace, appending round-robin (the same order
// workload.Record uses, so files are comparable byte-for-byte).
func recordBytes(t testing.TB, src workload.Source, eventsPerCore int) []byte {
	t.Helper()
	var buf bytes.Buffer
	meta := tracefile.Meta{Name: src.Name(), Cores: src.Cores(), Footprint: src.Footprint()}
	if sh, ok := src.(interface{ Shared() bool }); ok {
		meta.Shared = sh.Shared()
	}
	w, err := tracefile.NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < eventsPerCore; e++ {
		for c := 0; c < src.Cores(); c++ {
			if err := w.Append(c, src.Next(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(t testing.TB, data []byte) *tracefile.Reader {
	t.Helper()
	r, err := tracefile.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// smallCfg keeps every workload — including the graph-kernel variants,
// whose backing graphs hit their 4096-vertex floor at this scale —
// cheap enough to round-trip in a unit test.
var smallCfg = workload.Config{Cores: 2, Seed: 5, Scale: 1e-4, Intensity: 1}

// TestRoundTripAllWorkloads records every registered workload, replays
// it, and checks (a) the replayed events equal a freshly generated
// stream and (b) re-encoding the replayed stream reproduces the file
// byte-for-byte.
func TestRoundTripAllWorkloads(t *testing.T) {
	const perCore = 1500
	for _, name := range workload.Names() {
		src, err := workload.Open(name, smallCfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data := recordBytes(t, src, perCore)

		// Replayed events must equal a second, independent generation.
		r := openBytes(t, data)
		if r.Name() != name || r.Cores() != smallCfg.Cores {
			t.Fatalf("%s: meta lost: %q/%d cores", name, r.Name(), r.Cores())
		}
		fresh, err := workload.Open(name, smallCfg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < perCore; e++ {
			for c := 0; c < smallCfg.Cores; c++ {
				got, want := r.Next(c), fresh.Next(c)
				if got != want {
					t.Fatalf("%s: core %d event %d: replayed %+v, generated %+v", name, c, e, got, want)
				}
			}
		}
		if err := r.Err(); err != nil {
			t.Fatalf("%s: replay error: %v", name, err)
		}

		// Re-encoding the replayed stream must reproduce the bytes.
		r = openBytes(t, data)
		var buf2 bytes.Buffer
		w2, err := tracefile.NewWriter(&buf2, r.Meta())
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < perCore; e++ {
			for c := 0; c < smallCfg.Cores; c++ {
				if err := w2.Append(c, r.Next(c)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, buf2.Bytes()) {
			t.Fatalf("%s: re-encode not byte-identical (%d vs %d bytes)", name, len(data), buf2.Len())
		}
	}
}

// TestRecordDeterminism pins capture determinism: the same (name,
// cores, seed) records byte-identical files, and a different seed
// records a different stream.
func TestRecordDeterminism(t *testing.T) {
	mk := func(seed uint64) []byte {
		cfg := smallCfg
		cfg.Seed = seed
		src, err := workload.Open("mcf", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recordBytes(t, src, 2000)
	}
	a, b := mk(5), mk(5)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed did not record byte-identical files")
	}
	if bytes.Equal(a, mk(6)) {
		t.Fatal("different seeds recorded identical files")
	}
}

// TestMultiChunkStreams exercises streams long enough to span several
// chunks per core, including the partial tail chunk.
func TestMultiChunkStreams(t *testing.T) {
	const perCore = 3*tracefile.ChunkEvents + 100
	src, err := workload.Open("gcc", smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t, src, perCore)
	r := openBytes(t, data)
	if got := r.CoreEvents(0); got != perCore {
		t.Fatalf("core 0 recorded %d events, want %d", got, perCore)
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.Open("gcc", smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < perCore; e++ {
		for c := 0; c < smallCfg.Cores; c++ {
			if got, want := r.Next(c), fresh.Next(c); got != want {
				t.Fatalf("core %d event %d: %+v != %+v", c, e, got, want)
			}
		}
	}
}

// TestReadPastEnd: a core read to the end of its recording replays
// each recorded event once with no error; one more Next returns the
// zero event and latches ErrTraceWrapped, naming the core and its
// recorded count, and every later read (any core) stays zero.
func TestReadPastEnd(t *testing.T) {
	const perCore = tracefile.ChunkEvents + 100 // a full chunk and a tail
	src, err := workload.Open("gcc", workload.Config{Cores: 2, Seed: 9, Scale: 1e-4, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t, src, perCore)
	fresh, err := workload.Open("gcc", workload.Config{Cores: 2, Seed: 9, Scale: 1e-4, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := openBytes(t, data)
	for i := 0; i < perCore; i++ {
		if got, want := r.Next(1), fresh.Next(1); got != want {
			t.Fatalf("event %d: %+v != %+v", i, got, want)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("error after exactly the recorded events: %v", err)
	}
	if ev := r.Next(1); ev != (trace.Event{}) {
		t.Fatalf("read past end served %+v, want the zero event", ev)
	}
	err = r.Err()
	if !errors.Is(err, errs.ErrTraceWrapped) {
		t.Fatalf("read past end latched %v, want ErrTraceWrapped", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "core 1") || !strings.Contains(msg, fmt.Sprint(perCore)) {
		t.Fatalf("error %q does not name the core and its recorded count", msg)
	}
	if ev := r.Next(0); ev != (trace.Event{}) || r.Err() != err {
		t.Fatalf("after the latch: core 0 served %+v, Err %v", ev, r.Err())
	}
}

// TestEmptyCoreRunsOut: a core with no recorded events fails its
// first read with the same error as one read past its end.
func TestEmptyCoreRunsOut(t *testing.T) {
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, tracefile.Meta{Name: "x", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, trace.Event{Gap: 1, Addr: 64}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := openBytes(t, buf.Bytes())
	if ev := r.Next(1); ev != (trace.Event{}) || !errors.Is(r.Err(), errs.ErrTraceWrapped) {
		t.Fatalf("empty core served %+v, Err %v; want zero event and ErrTraceWrapped", ev, r.Err())
	}
}

// TestReaderRejectsWideAddress: the simulator's addresses are
// mem.AddrBits wide, so an address past them is corruption that Verify
// and replay both report, not a value to feed the caches. The widest
// address that fits replays as recorded.
func TestReaderRejectsWideAddress(t *testing.T) {
	top := mem.Addr(1)<<mem.AddrBits - 64
	for _, tc := range []struct {
		addr mem.Addr
		ok   bool
	}{{top, true}, {top + 64, false}, {1 << 62, false}} {
		var buf bytes.Buffer
		w, err := tracefile.NewWriter(&buf, tracefile.Meta{Name: "x", Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []mem.Addr{64, tc.addr} {
			if err := w.Append(0, trace.Event{Gap: 1, Addr: a}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := openBytes(t, buf.Bytes())
		if err := r.Verify(); (err == nil) != tc.ok || err != nil && !errors.Is(err, tracefile.ErrCorrupt) {
			t.Fatalf("address %#x: Verify error %v, want ok=%v", tc.addr, err, tc.ok)
		}
		r.Next(0)
		ev := r.Next(0)
		if tc.ok && (ev.Addr != tc.addr || r.Err() != nil) || !tc.ok && !errors.Is(r.Err(), tracefile.ErrCorrupt) {
			t.Fatalf("address %#x: replayed %+v, Err %v; want ok=%v", tc.addr, ev, r.Err(), tc.ok)
		}
	}
}

// TestReaderZeroAlloc pins the acceptance criterion: the steady-state
// replay path — including chunk reloads, which hit the preallocated
// per-core buffers — performs zero allocations per Next.
func TestReaderZeroAlloc(t *testing.T) {
	src, err := workload.Open("mcf", workload.Config{Cores: 2, Seed: 3, Scale: 1e-3, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t, src, 2*tracefile.ChunkEvents+500)
	r := openBytes(t, data)
	for i := 0; i < 100; i++ {
		r.Next(0)
		r.Next(1)
	}
	var c int
	avg := testing.AllocsPerRun(3*tracefile.ChunkEvents, func() {
		r.Next(c & 1)
		c++
	})
	if avg != 0 {
		t.Fatalf("Reader.Next allocates %v per event, want 0", avg)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEveryByteFlipDetected: all four sections (header, chunks, index,
// footer) are checksummed, so corrupting any single byte of a trace
// must be detected by Open or Verify.
func TestEveryByteFlipDetected(t *testing.T) {
	src, err := workload.Open("gcc", workload.Config{Cores: 1, Seed: 2, Scale: 1e-4, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t, src, 300)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0xFF
		r, err := tracefile.NewReader(bytes.NewReader(mut), int64(len(mut)))
		if err == nil {
			err = r.Verify()
		}
		if err == nil {
			t.Errorf("byte flip at offset %d undetected", i)
		}
	}
}

// TestTruncationsRejected: every proper prefix of a trace must fail to
// open (the footer is gone or misplaced).
func TestTruncationsRejected(t *testing.T) {
	src, err := workload.Open("gcc", workload.Config{Cores: 1, Seed: 2, Scale: 1e-4, Intensity: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t, src, 300)
	for n := 0; n < len(data); n++ {
		if _, err := tracefile.NewReader(bytes.NewReader(data[:n]), int64(n)); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(data))
		}
	}
}

// TestWriterValidation covers the writer's misuse errors.
func TestWriterValidation(t *testing.T) {
	if _, err := tracefile.NewWriter(&bytes.Buffer{}, tracefile.Meta{Cores: 0}); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := tracefile.NewWriter(&bytes.Buffer{}, tracefile.Meta{Cores: tracefile.MaxCores + 1}); err == nil {
		t.Error("excessive cores accepted")
	}
	w, err := tracefile.NewWriter(&bytes.Buffer{}, tracefile.Meta{Name: "x", Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, trace.Event{}); err == nil {
		t.Error("out-of-range core accepted")
	}
	if err := w.Append(0, trace.Event{Gap: -1}); err == nil {
		t.Error("negative gap accepted")
	}
	if err := w.Append(0, trace.Event{Gap: 1, Addr: 64}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, trace.Event{}); err == nil {
		t.Error("Append after Close accepted")
	}
}

// TestFileRoundTrip exercises the Create/Open file path (as opposed to
// the in-memory Writer/Reader used elsewhere).
func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/t.btrc"
	cfg := workload.Config{Cores: 2, Seed: 11, Scale: 1e-4, Intensity: 1}
	if err := workload.Record(path, "soplex", cfg, 1200); err != nil {
		t.Fatal(err)
	}
	r, err := tracefile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "soplex" || r.Cores() != 2 || r.TotalEvents() != 2400 {
		t.Fatalf("meta mismatch: %q %d cores %d events", r.Name(), r.Cores(), r.TotalEvents())
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.Open("soplex", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 1200; e++ {
		for c := 0; c < 2; c++ {
			if got, want := r.Next(c), fresh.Next(c); got != want {
				t.Fatalf("core %d event %d: %+v != %+v", c, e, got, want)
			}
		}
	}
}
