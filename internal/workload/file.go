package workload

import (
	"fmt"
	"os"
	"strings"

	"banshee/internal/errs"
	"banshee/internal/tracefile"
)

// FilePrefix marks workload names that resolve to recorded trace
// files: "file:<path>" replays <path> (a .btrc written by Record or
// cmd/tracegen record).
const FilePrefix = "file:"

// The tracefile kind replays recorded traces. tracefile.Reader itself
// satisfies Source, so resolution is just open + core-count check: a
// recording is replayed on exactly the machine shape it was captured
// for (cfg.Cores == 0 adopts the recording's count, for tools that
// inspect rather than simulate).
func init() {
	Register(Def{
		Kind: "tracefile",
		Open: func(name string, cfg Config) (Source, bool, error) {
			path, ok := strings.CutPrefix(name, FilePrefix)
			if !ok {
				return nil, false, nil
			}
			r, err := tracefile.Open(path)
			if err != nil {
				return nil, true, err
			}
			if cfg.Cores != 0 && cfg.Cores != r.Cores() {
				r.Close()
				return nil, true, fmt.Errorf("workload: %w", errs.Configf("Cores",
					"%s records %d cores, config wants %d", name, r.Cores(), cfg.Cores))
			}
			return r, true, nil
		},
	})
}

// Record captures eventsPerCore events of every core of the named
// workload into a .btrc trace file at path. The recorded streams are
// the exact per-core prefixes a simulator run with the same (name,
// cores, seed, options) would consume: each core's generator state is
// independent, so capture order cannot perturb the streams.
//
// Because every event retires at least one instruction, recording
// InstrPerCore events per core is always enough to replay a run with
// that instruction budget without running out.
func Record(path, name string, cfg Config, eventsPerCore uint64) error {
	if eventsPerCore == 0 {
		return fmt.Errorf("workload: %w", errs.Configf("EventsPerCore", "must be positive"))
	}
	src, err := Open(name, cfg)
	if err != nil {
		return err
	}
	defer closeSource(src)
	meta := tracefile.Meta{
		Name:      src.Name(),
		Cores:     src.Cores(),
		Footprint: src.Footprint(),
	}
	if sh, ok := src.(interface{ Shared() bool }); ok {
		meta.Shared = sh.Shared()
	}
	w, err := tracefile.Create(path, meta)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		w.Close()
		os.Remove(path)
		return err
	}
	for e := uint64(0); e < eventsPerCore; e++ {
		for c := 0; c < meta.Cores; c++ {
			if err := w.Append(c, src.Next(c)); err != nil {
				return abort(err)
			}
		}
	}
	// A replayed-file source fails by latching an error (a decode
	// failure, or a stream shorter than eventsPerCore), not by
	// returning one from Next; re-recording from such a source must not
	// silently capture zeroed streams.
	if e, ok := src.(interface{ Err() error }); ok {
		if err := e.Err(); err != nil {
			return abort(fmt.Errorf("workload: record %s: %w", name, err))
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// closeSource releases a source that holds external resources (file
// sources do; synthetic ones do not).
func closeSource(src Source) {
	if c, ok := src.(interface{ Close() error }); ok {
		c.Close()
	}
}
