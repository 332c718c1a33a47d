package tracefile_test

import (
	"bytes"
	"errors"
	"testing"

	"banshee/internal/errs"
	"banshee/internal/trace"
	"banshee/internal/tracefile"
	"banshee/internal/workload"
)

// FuzzReader is the decoder robustness target: arbitrary bytes fed to
// the reader must either fail cleanly at Open/Verify or replay without
// panicking — never crash, hang, or allocate beyond what the claimed
// file size justifies (every count and length in the format is
// validated against the file size before allocation; see NewReader).
// A file that passes Verify replays exactly its recorded events and
// then runs out with ErrTraceWrapped.
func FuzzReader(f *testing.F) {
	src, err := workload.Open("gcc", workload.Config{Cores: 2, Seed: 2, Scale: 1e-4, Intensity: 1})
	if err != nil {
		f.Fatal(err)
	}
	valid := recordBytes(f, src, 600)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("BTRC"))
	f.Add(valid[:len(valid)/2]) // truncated mid-chunk
	f.Add(valid[:len(valid)-5]) // footer clipped
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, off := range []int{5, 9, 30, 80, len(valid) - 30, len(valid) - 2} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x40
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tracefile.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if err := r.Verify(); err != nil {
			return
		}
		// Structurally valid input: Verify decoded every event, so each
		// core replays exactly its recorded count without error (the
		// count is bounded by the file size, at least 2 bytes an event).
		for c := 0; c < r.Cores(); c++ {
			for i := uint64(0); i < r.CoreEvents(c); i++ {
				r.Next(c)
			}
			if err := r.Err(); err != nil {
				t.Fatalf("Verify passed but replay of core %d failed: %v", c, err)
			}
		}
		// One read more has no event to give.
		if ev := r.Next(0); ev != (trace.Event{}) || !errors.Is(r.Err(), errs.ErrTraceWrapped) {
			t.Fatalf("read past end served %+v, Err %v; want zero event and ErrTraceWrapped", ev, r.Err())
		}
	})
}
