package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"banshee/internal/stats"
)

// FuzzSinkResume fuzzes the one reader both record streams share: the
// success stream and the failure ledger are both Sink files, read back
// by resume (OpenSink with resume) and by ParseRecords. For any bytes
// on disk, resume must keep exactly the longest intact line prefix,
// agree with ParseRecords on it, and append after it cleanly.
func FuzzSinkResume(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.jsonl")
	s, err := OpenSink(path, false)
	if err != nil {
		f.Fatal(err)
	}
	ok := Record{ID: "a1", Matrix: "m", Label: "base", Workload: "pagerank", Scheme: "Banshee", Seed: 7,
		Result: stats.Sim{Workload: "pagerank", Scheme: "Banshee", Instructions: 60000, Cycles: 123456, DCHits: 42}}
	failed := Record{ID: "b2", Matrix: "m", Workload: "lbm", Scheme: "Alloy 1", Seed: 7,
		Attempts: 2, Error: "panic: boom", Panicked: true}
	for _, r := range []Record{ok, failed} {
		if err := s.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	first := data[:bytes.IndexByte(data, '\n')+1]
	flipped := bytes.Clone(data)
	flipped[bytes.Index(flipped, []byte(`"attempts":2`))+len(`"attempts":`)] = '3'
	f.Add(data)
	f.Add(data[:len(data)-5])
	f.Add(flipped)
	f.Add(append(bytes.Clone(first), data...))

	extra := Record{ID: "c3", Matrix: "m", Workload: "mcf", Scheme: "NoCache", Seed: 9,
		Result: stats.Sim{Cycles: 99}}
	// Inputs run one at a time per process, so they share one file.
	path = filepath.Join(dir, "ck.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSink(path, true)
		if err != nil {
			t.Fatalf("resume failed: %v", err)
		}
		loaded := slices.Clone(s.Loaded())
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		k := len(kept)
		if !bytes.Equal(kept, data[:k]) || (k > 0 && kept[k-1] != '\n') {
			t.Fatalf("resume left %q, not a line-boundary prefix of %q", kept, data)
		}
		if recs, err := ParseRecords(kept); err != nil || !slices.Equal(recs, loaded) {
			t.Fatalf("ParseRecords(kept prefix) = %d records, %v; resume loaded %d", len(recs), err, len(loaded))
		}
		recs, err := ParseRecords(data)
		if (err == nil) != (k == len(data)) {
			t.Fatalf("ParseRecords error %v, but resume kept %d of %d bytes", err, k, len(data))
		}
		if err == nil && !slices.Equal(recs, loaded) {
			t.Fatalf("ParseRecords and resume disagree on an intact file")
		}

		if err := s.Append(extra); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenSink(path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if want := append(loaded, extra); !slices.Equal(s2.Loaded(), want) {
			t.Fatalf("after append, resume loaded %d records, want %d", len(s2.Loaded()), len(want))
		}
	})
}
