package fault

import (
	"fmt"
	"io"
	"time"

	"banshee/internal/trace"
	"banshee/internal/workload"
)

// Source wraps a workload source with a fault that fires at a
// deterministic event index hashed from key into [1, Plan.FaultAfter].
// Panic mode panics out of Next mid-stream; Err mode latches an
// injected decode error (surfaced through Err(), exactly how a
// corrupt .btrc replay fails a run); Stall mode blocks Next once for
// Plan.Stall. A key that draws None (or Short, which is writer-only)
// returns src unwrapped.
func (in *Injector) Source(src workload.Source, key string) workload.Source {
	mode := in.ModeFor(key)
	if mode != Panic && mode != Err && mode != Stall {
		return src
	}
	at := 1 + in.hash(key, "at")%in.plan.faultAfter()
	return &faultSource{inner: src, mode: mode, at: at, stall: in.plan.stall()}
}

type faultSource struct {
	inner workload.Source
	mode  Mode
	at    uint64 // global event index the fault fires at
	n     uint64
	stall time.Duration
	err   error
}

func (s *faultSource) Name() string      { return s.inner.Name() }
func (s *faultSource) Cores() int        { return s.inner.Cores() }
func (s *faultSource) Footprint() uint64 { return s.inner.Footprint() }

func (s *faultSource) Next(core int) trace.Event {
	if s.err != nil {
		return trace.Event{}
	}
	if s.n++; s.n == s.at {
		recordFault(s.mode)
		switch s.mode {
		case Panic:
			panic(fmt.Sprintf("fault: injected panic in workload %s at event %d", s.inner.Name(), s.n))
		case Err:
			s.err = fmt.Errorf("fault: workload %s event %d: injected decode error: %w",
				s.inner.Name(), s.n, ErrInjected)
			return trace.Event{}
		case Stall:
			time.Sleep(s.stall)
		}
	}
	return s.inner.Next(core)
}

// Err surfaces the latched injected error, or the inner source's own.
func (s *faultSource) Err() error {
	if s.err != nil {
		return s.err
	}
	if e, ok := s.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// Close releases the inner source's resources, if it holds any.
func (s *faultSource) Close() error {
	if c, ok := s.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Writer wraps w with a deterministic write fault keyed by key: Err
// mode fails the write that crosses a hashed byte offset; Short mode
// tears it — half the bytes reach w, then an error — producing
// exactly the torn-tail checkpoint a resume must repair; Stall mode
// blocks that write once for Plan.Stall. None and Panic keys return w
// unwrapped (a panicking writer adds nothing over a panicking job).
func (in *Injector) Writer(w io.Writer, key string) io.Writer {
	mode := in.ModeFor(key)
	if mode != Err && mode != Short && mode != Stall {
		return w
	}
	at := int64(1 + in.hash(key, "wat")%in.plan.faultAfter())
	return &faultWriter{inner: w, mode: mode, at: at, stall: in.plan.stall()}
}

type faultWriter struct {
	inner io.Writer
	mode  Mode
	at    int64 // fault fires on the write crossing this byte offset
	n     int64
	fired bool
	stall time.Duration
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if !w.fired && w.n+int64(len(p)) >= w.at {
		w.fired = true
		recordFault(w.mode)
		switch w.mode {
		case Err:
			return 0, fmt.Errorf("fault: write at offset %d: %w", w.n, ErrInjected)
		case Short:
			n, _ := w.inner.Write(p[:len(p)/2])
			w.n += int64(n)
			return n, fmt.Errorf("fault: short write at offset %d: %w", w.n, ErrInjected)
		case Stall:
			time.Sleep(w.stall)
		}
	}
	n, err := w.inner.Write(p)
	w.n += int64(n)
	return n, err
}

// ReaderAt wraps r with a deterministic read fault keyed by key over a
// byte region of the given size: Err mode flips the lowest bit of one
// hashed byte offset in every read covering it — the single-bit
// corruption a .btrc reader's CRCs must catch; Panic mode panics on
// the read covering that offset; Stall mode blocks it once. None and
// Short keys return r unwrapped.
func (in *Injector) ReaderAt(r io.ReaderAt, size int64, key string) io.ReaderAt {
	mode := in.ModeFor(key)
	if mode != Err && mode != Panic && mode != Stall {
		return r
	}
	if size <= 0 {
		size = 1
	}
	at := int64(in.hash(key, "rat") % uint64(size))
	return &faultReaderAt{inner: r, mode: mode, at: at, stall: in.plan.stall()}
}

type faultReaderAt struct {
	inner   io.ReaderAt
	mode    Mode
	at      int64
	stalled bool
	stall   time.Duration
}

func (r *faultReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.inner.ReadAt(p, off)
	if r.at >= off && r.at < off+int64(n) {
		switch r.mode {
		case Err:
			recordFault(Err)
			p[r.at-off] ^= 1
		case Panic:
			recordFault(Panic)
			panic(fmt.Sprintf("fault: injected panic reading offset %d", r.at))
		case Stall:
			if !r.stalled {
				r.stalled = true
				recordFault(Stall)
				time.Sleep(r.stall)
			}
		}
	}
	return n, err
}
