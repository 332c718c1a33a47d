// Package errs defines the typed error vocabulary shared across the
// simulator's layers. The registry, workload, tracefile, sim, and
// runner packages wrap these sentinels into their contextual messages,
// so callers match failure classes with errors.Is / errors.As instead
// of string inspection, and the root package re-exports them as the
// public error surface (banshee.ErrUnknownScheme and friends).
//
// The package sits below every other internal package and imports only
// the standard library, so any layer can return these errors without
// creating an import cycle.
package errs

import (
	"errors"
	"fmt"
	"syscall"
)

var (
	// ErrUnknownScheme is wrapped by every "no such scheme" failure:
	// an unregistered display name in registry.Parse or an unregistered
	// kind in registry.Build.
	ErrUnknownScheme = errors.New("unknown scheme")

	// ErrUnknownWorkload is wrapped when a workload name is claimed by
	// no registered workload kind.
	ErrUnknownWorkload = errors.New("unknown workload")

	// ErrTraceWrapped is wrapped when a recorded trace ran out of events
	// mid-use: the recording is shorter than the run (or re-recording)
	// reading it, so that use fails instead of inventing the missing
	// events.
	ErrTraceWrapped = errors.New("recorded trace ran out")

	// ErrTraceCorrupt is wrapped by every structural-damage error the
	// .btrc decoder returns — bad magic, checksum mismatch, inconsistent
	// index — as opposed to plain I/O failures.
	ErrTraceCorrupt = errors.New("corrupt trace file")

	// ErrDiskFull matches any durable-store write that failed because
	// the disk (or quota) is exhausted. The condition is environmental
	// and transient — an operator frees space and the work resumes —
	// so layers that hit it must pause cleanly (checkpoint prefix
	// intact, no terminal marker) rather than corrupt or abandon
	// state. Match with errors.Is.
	ErrDiskFull = errors.New("disk full")
)

// DiskFullError wraps an out-of-space failure with the operation that
// hit it. errors.Is(err, ErrDiskFull) matches it; Unwrap exposes the
// underlying syscall error for platform-level inspection.
type DiskFullError struct {
	// Op describes the write that failed ("sink append",
	// "commit done.json", ...).
	Op string
	// Err is the underlying failure (wrapping ENOSPC or EDQUOT).
	Err error
}

func (e *DiskFullError) Error() string {
	return fmt.Sprintf("%s: %s: %v", ErrDiskFull, e.Op, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *DiskFullError) Unwrap() error { return e.Err }

// Is matches ErrDiskFull.
func (e *DiskFullError) Is(target error) bool { return target == ErrDiskFull }

// WrapDiskFull classifies a write error: out-of-space failures
// (ENOSPC) come back as a *DiskFullError carrying op; anything else —
// including nil — is returned unchanged.
func WrapDiskFull(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, syscall.ENOSPC) {
		return &DiskFullError{Op: op, Err: err}
	}
	return err
}

// JobError reports one batch job's permanent failure after supervision
// gave up on it: which job (sweep coordinate and content ID), how many
// attempts were made, whether the final attempt panicked, and the
// underlying cause. The runner's supervised workers convert panics and
// per-attempt errors into one JobError per failed job; match with
// errors.As to recover the job context, and errors.Is against the
// wrapped cause (context.DeadlineExceeded for a blown per-job
// deadline, ErrTraceCorrupt for a damaged replay, ...).
type JobError struct {
	// Coord is the job's sweep coordinate
	// ("matrix|label|workload|scheme|seed").
	Coord string
	// ID is the job's content key over its resolved configuration.
	ID string
	// Attempts is how many times the job was tried before giving up.
	Attempts int
	// Panicked reports whether the final attempt failed by panic
	// (recovered by the supervisor) rather than by returned error.
	Panicked bool
	// Err is the final attempt's failure cause.
	Err error
}

func (e *JobError) Error() string {
	how := "failed"
	if e.Panicked {
		how = "panicked"
	}
	return fmt.Sprintf("job %s (%s) %s after %d attempt(s): %v", e.Coord, e.ID, how, e.Attempts, e.Err)
}

// Unwrap exposes the failure cause to errors.Is / errors.As.
func (e *JobError) Unwrap() error { return e.Err }

// ConfigError reports an invalid configuration field with enough
// context to fix it: which field, and why its value was rejected.
// Every layer that validates run configuration (sim.Config, workload
// shapes) returns one; match with errors.As:
//
//	var ce *errs.ConfigError
//	if errors.As(err, &ce) { log.Printf("bad %s: %s", ce.Field, ce.Reason) }
type ConfigError struct {
	// Field names the offending configuration field ("Cores", "MSHRs",
	// "WarmupFrac", ...).
	Field string
	// Reason says why the value was rejected, including the value.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("config: %s: %s", e.Field, e.Reason)
}

// Configf builds a *ConfigError with a formatted reason.
func Configf(field, format string, args ...interface{}) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}
