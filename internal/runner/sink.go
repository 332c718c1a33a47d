package runner

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"banshee/internal/errs"
)

// castagnoli is the CRC-32C table — the same polynomial the .btrc
// trace format uses for its chunk checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSuffixLen is the length of the per-line checksum suffix:
// `,"crc":"xxxxxxxx"}` spliced over the record's closing brace.
const crcSuffixLen = len(`,"crc":"00000000"}`)

// Sink streams records to a JSONL file — a success stream or a failure
// ledger (Engine.Sink, Engine.FailedOut) — one record per line,
// flushed per line so an interrupted sweep loses at most a partial
// trailing line. Every line carries a CRC-32C of the record's
// canonical JSON as a trailing "crc" field, so damage anywhere in a
// checkpoint — not just a torn final line — is detected on resume.
// Opened with resume, it indexes the records already on disk,
// truncating at the first torn or checksum-failing record (Dropped
// reports how many complete records that discarded), so the engine can
// skip finished jobs and append the remainder — producing a file
// byte-identical to an uninterrupted run.
type Sink struct {
	f       *os.File
	out     io.Writer
	w       *bufio.Writer
	sync    bool
	loaded  []Record
	dropped int
}

// OpenSink opens (and if needed creates) the JSONL file at path. With
// resume false any existing content is discarded; with resume true
// existing intact records are loaded and the file is truncated to the
// last intact line before appending resumes.
func OpenSink(path string, resume bool) (*Sink, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: sink dir: %w", err)
		}
	}
	if !resume {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("runner: sink: %w", err)
		}
		return newSink(f), nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: sink: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: sink: %w", err)
	}
	var loaded []Record
	valid := 0
	for len(data[valid:]) > 0 {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn trailing line from an interrupted run
		}
		r, ok := decodeLine(data[valid : valid+nl])
		if !ok {
			break // corrupt record; keep only the intact prefix
		}
		loaded = append(loaded, r)
		valid += nl + 1
	}
	dropped := bytes.Count(data[valid:], []byte{'\n'})
	if valid < len(data) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: sink truncate: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: sink seek: %w", err)
	}
	s := newSink(f)
	s.loaded, s.dropped = loaded, dropped
	return s, nil
}

func newSink(f *os.File) *Sink {
	return &Sink{f: f, out: f, w: bufio.NewWriter(f)}
}

// decodeLine validates and parses one sink line: the trailing crc
// field must be present and its CRC-32C must match the canonical
// record bytes (the line with the crc splice removed). Verifying the
// raw bytes — rather than re-encoding the parsed record — catches a
// flipped bit inside any value, not just structural damage.
func decodeLine(line []byte) (Record, bool) {
	if len(line) < crcSuffixLen || line[len(line)-1] != '}' {
		return Record{}, false
	}
	suffix := line[len(line)-crcSuffixLen:]
	if !bytes.HasPrefix(suffix, []byte(`,"crc":"`)) || !bytes.HasSuffix(suffix, []byte(`"}`)) {
		return Record{}, false
	}
	var want [4]byte
	if _, err := hex.Decode(want[:], suffix[8:16]); err != nil {
		return Record{}, false
	}
	canonical := make([]byte, 0, len(line))
	canonical = append(canonical, line[:len(line)-crcSuffixLen]...)
	canonical = append(canonical, '}')
	if crc32.Checksum(canonical, castagnoli) != uint32(want[0])<<24|uint32(want[1])<<16|uint32(want[2])<<8|uint32(want[3]) {
		return Record{}, false
	}
	var r Record
	if err := json.Unmarshal(canonical, &r); err != nil || r.ID == "" {
		return Record{}, false
	}
	return r, true
}

// ParseRecords decodes a complete checkpoint JSONL stream — the sink's
// on-disk and over-the-wire format — validating every line's CRC.
// Unlike resume (which tolerates a torn tail), a short, torn, or
// corrupt stream is an error: callers parse streams a server declared
// complete, so damage means transport or service trouble, not an
// interrupted run.
func ParseRecords(data []byte) ([]Record, error) {
	var recs []Record
	for off := 0; len(data[off:]) > 0; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil, fmt.Errorf("runner: record stream: torn trailing line at byte %d", off)
		}
		r, ok := decodeLine(data[off : off+nl])
		if !ok {
			return nil, fmt.Errorf("runner: record stream: corrupt record at byte %d", off)
		}
		recs = append(recs, r)
		off += nl + 1
	}
	return recs, nil
}

// Loaded returns the records read at open time (resume only).
func (s *Sink) Loaded() []Record { return s.loaded }

// Dropped returns how many complete-but-corrupt records resume
// discarded when it truncated the file (a torn trailing partial line
// is repaired silently and not counted).
func (s *Sink) Dropped() int { return s.dropped }

// SetSync controls whether every flush boundary also fsyncs the file.
// Local batch runs leave it off (the OS page cache is durable enough
// for a reproducible re-run); the sweep daemon turns it on so a
// machine crash — not just a process crash — loses at most the one
// in-flight record of each checkpoint stream.
func (s *Sink) SetSync(on bool) { s.sync = on }

// WrapWriter interposes wrap's result between the sink's line buffer
// and the file — the fault-injection seam: chaos tests wrap it to
// inject short writes and write errors into the checkpoint stream.
func (s *Sink) WrapWriter(wrap func(io.Writer) io.Writer) {
	s.w.Flush()
	s.out = wrap(s.out)
	s.w = bufio.NewWriter(s.out)
}

// Rewrite replaces the file's contents with recs — used when a resumed
// matrix no longer matches the file's record sequence (an edited
// sweep), so stale records are pruned instead of accumulating behind
// the fresh ones.
func (s *Sink) Rewrite(recs []Record) error {
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("runner: sink rewrite: %w", err)
	}
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("runner: sink rewrite: %w", err)
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		return fmt.Errorf("runner: sink rewrite: %w", err)
	}
	s.w = bufio.NewWriter(s.out)
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Append writes one record as a checksummed JSON line and flushes it
// to disk.
func (s *Sink) Append(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: sink encode: %w", err)
	}
	crc := crc32.Checksum(b, castagnoli)
	line := make([]byte, 0, len(b)+crcSuffixLen)
	line = append(line, b[:len(b)-1]...) // drop the closing brace
	line = append(line, fmt.Sprintf(`,"crc":"%08x"}`, crc)...)
	line = append(line, '\n')
	if _, err := s.w.Write(line); err != nil {
		return errs.WrapDiskFull("sink append", fmt.Errorf("runner: sink write: %w", err))
	}
	if err := s.w.Flush(); err != nil {
		return errs.WrapDiskFull("sink append", fmt.Errorf("runner: sink flush: %w", err))
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			return errs.WrapDiskFull("sink fsync", fmt.Errorf("runner: sink fsync: %w", err))
		}
	}
	return nil
}

// Close flushes and closes the file.
func (s *Sink) Close() error {
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return errs.WrapDiskFull("sink close", fmt.Errorf("runner: sink flush: %w", err))
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			s.f.Close()
			return errs.WrapDiskFull("sink fsync", fmt.Errorf("runner: sink fsync: %w", err))
		}
	}
	return s.f.Close()
}
