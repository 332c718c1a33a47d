package sweepd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"banshee/internal/errs"
)

// Store is the daemon's durable state: one directory per sweep under
// <root>/sweeps/<id>/ holding the submitted spec, the checkpoint sink,
// the failure ledger, the epoch stream, and — once the sweep reaches a
// terminal state — a done marker with its final status. Everything the
// daemon needs to resume after a SIGKILL is in these files: a sweep
// directory without a done marker is, by definition, unfinished work.
type Store struct {
	root string
}

// NewStore opens (creating if needed) the state directory at root.
func NewStore(root string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(root, "sweeps"), 0o755); err != nil {
		return nil, fmt.Errorf("sweepd: state dir: %w", err)
	}
	return &Store{root: root}, nil
}

// Dir returns sweep id's directory, creating it if needed.
func (s *Store) Dir(id string) (string, error) {
	dir := filepath.Join(s.root, "sweeps", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("sweepd: sweep dir: %w", err)
	}
	return dir, nil
}

func (s *Store) path(id, name string) string {
	return filepath.Join(s.root, "sweeps", id, name)
}

// ResultsPath is the sweep's checkpoint sink file (success stream).
func (s *Store) ResultsPath(id string) string { return s.path(id, "results.jsonl") }

// LedgerPath is the sweep's failure ledger file.
func (s *Store) LedgerPath(id string) string { return s.path(id, "results.failed.jsonl") }

// EpochsPath is the sweep's epoch-series stream file.
func (s *Store) EpochsPath(id string) string { return s.path(id, "epochs.jsonl") }

// SpecPath is the sweep's submitted spec.
func (s *Store) SpecPath(id string) string { return s.path(id, "spec.json") }

// DonePath is the sweep's terminal-status marker.
func (s *Store) DonePath(id string) string { return s.path(id, "done.json") }

// writeAtomic writes data to path via a temp file + fsync + rename, so
// a crash mid-write can never leave a torn spec or done marker: the
// file either exists complete or not at all. The temp file is synced
// before the rename (else a power loss could commit a name pointing at
// unwritten blocks) and the parent directory is synced after it (else
// the rename itself could be lost). Out-of-space failures come back as
// errs.ErrDiskFull so callers pause instead of treating the sweep as
// corrupt.
func (s *Store) writeAtomic(path string, v interface{}) error {
	base := filepath.Base(path)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("sweepd: encode %s: %w", base, err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return errs.WrapDiskFull("create "+base, fmt.Errorf("sweepd: write %s: %w", base, err))
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return errs.WrapDiskFull("write "+base, fmt.Errorf("sweepd: write %s: %w", base, err))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return errs.WrapDiskFull("fsync "+base, fmt.Errorf("sweepd: fsync %s: %w", base, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return errs.WrapDiskFull("close "+base, fmt.Errorf("sweepd: write %s: %w", base, err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return errs.WrapDiskFull("commit "+base, fmt.Errorf("sweepd: commit %s: %w", base, err))
	}
	// Make the rename durable. Best-effort: directory fsync is not
	// supported everywhere, and its failure cannot un-commit the file.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// SaveSpec persists sweep id's spec (atomically — resume must never
// see a half-written spec).
func (s *Store) SaveSpec(id string, spec Spec) error {
	if _, err := s.Dir(id); err != nil {
		return err
	}
	return s.writeAtomic(s.SpecPath(id), spec)
}

// LoadSpec reads sweep id's persisted spec.
func (s *Store) LoadSpec(id string) (Spec, error) {
	b, err := os.ReadFile(s.SpecPath(id))
	if err != nil {
		return Spec{}, fmt.Errorf("sweepd: load spec %s: %w", id, err)
	}
	var spec Spec
	if err := json.Unmarshal(b, &spec); err != nil {
		return Spec{}, fmt.Errorf("sweepd: parse spec %s: %w", id, err)
	}
	return spec, nil
}

// MarkDone persists sweep id's terminal status. Its presence is what
// stops a restarted daemon from re-running the sweep.
func (s *Store) MarkDone(id string, st Status) error {
	st.FinishedAt = time.Now().UTC().Format(time.RFC3339)
	return s.writeAtomic(s.DonePath(id), st)
}

// ClearDone removes sweep id's terminal marker — the first step of
// restarting a cancelled or failed sweep.
func (s *Store) ClearDone(id string) error {
	if err := os.Remove(s.DonePath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sweepd: clear done %s: %w", id, err)
	}
	return nil
}

// LoadDone reads sweep id's terminal status; ok reports whether the
// sweep has one (false = never finished, i.e. resumable).
func (s *Store) LoadDone(id string) (Status, bool, error) {
	b, err := os.ReadFile(s.DonePath(id))
	if os.IsNotExist(err) {
		return Status{}, false, nil
	}
	if err != nil {
		return Status{}, false, fmt.Errorf("sweepd: load done %s: %w", id, err)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		return Status{}, false, fmt.Errorf("sweepd: parse done %s: %w", id, err)
	}
	return st, true, nil
}

// List returns every sweep ID with a directory on disk, sorted.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "sweeps"))
	if err != nil {
		return nil, fmt.Errorf("sweepd: list sweeps: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
