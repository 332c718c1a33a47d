// Package sweepd turns the batch engine into a long-running sharded
// sweep service: an HTTP/JSON daemon that accepts declarative sweep
// specs, assigns each a content-derived ID, executes its content-keyed
// jobs on a local worker pool — optionally sharded across attached
// worker processes pulling job leases over HTTP — and streams results
// back as checkpoint JSONL with resume-from-offset.
//
// Durability rides entirely on the existing checkpoint machinery: each
// sweep owns a state directory holding its spec and its JSONL sink, so
// a SIGKILL'd daemon restarts, re-leases unfinished jobs, and
// converges to output byte-identical to a local RunBatch of the same
// spec. That identity — not merely "the jobs all ran" — is the
// service's core contract; DESIGN.md §14 records the protocol.
package sweepd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"banshee/internal/runner"
	"banshee/internal/sim"
)

// RunOptions tunes how the daemon executes a sweep. All fields are
// execution policy, not content: none of them change the sweep's
// output bytes, so they are excluded from the sweep ID.
type RunOptions struct {
	// GangWidth ≥ 2 lets the engine run that many jobs sharing a
	// front-end shape as one lockstep gang.
	GangWidth int `json:"gang_width,omitempty"`
	// Retries is the total attempts per job (0 and 1 both mean one).
	Retries int `json:"retries,omitempty"`
	// JobTimeoutMs deadlines each attempt in milliseconds (0 = none).
	JobTimeoutMs int64 `json:"job_timeout_ms,omitempty"`
	// KeepGoing completes the sweep past permanently failed jobs,
	// streaming them to the sweep's failure ledger.
	KeepGoing bool `json:"keep_going,omitempty"`
	// EpochEvery, when > 0, samples every locally executed job's epoch
	// series at this retired-instruction interval into the sweep's
	// epochs JSONL stream (GET /v1/sweeps/{id}/epochs).
	EpochEvery uint64 `json:"epoch_every,omitempty"`
}

// retry renders the options' retry policy for the engine.
func (o RunOptions) retry() runner.RetryPolicy {
	return runner.RetryPolicy{MaxAttempts: o.Retries,
		BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}
}

func (o RunOptions) jobTimeout() time.Duration {
	return time.Duration(o.JobTimeoutMs) * time.Millisecond
}

// Spec is the wire form of a sweep: a runner.Matrix (Base × Workloads
// × Schemes × Points × Seeds, each point a JSON overlay) plus the
// options it runs under.
type Spec struct {
	runner.Matrix
	Options RunOptions `json:"options,omitempty"`
}

// UnmarshalJSON overlays the wire spec onto defaults: Base starts from
// sim.DefaultConfig(), so a hand-written spec.json states only the
// knobs it changes — the same overlay semantics a point's Set has —
// instead of spelling out every config field. A field the spec has no
// place for is an error: dropped silently, a typo'd knob would run the
// default instead.
func (s *Spec) UnmarshalJSON(data []byte) error {
	type plain Spec // drop methods to avoid recursing
	a := plain(Spec{Matrix: runner.Matrix{Base: sim.DefaultConfig()}})
	if err := runner.DecodeStrict(data, &a); err != nil {
		return err
	}
	*s = Spec(a)
	return nil
}

// SpecFromMatrix wraps a locally declared Matrix as a Spec after
// checking that it enumerates.
func SpecFromMatrix(m runner.Matrix, o RunOptions) (Spec, error) {
	if _, err := m.Jobs(); err != nil {
		return Spec{}, err
	}
	return Spec{Matrix: m, Options: o}, nil
}

// Resolve validates the spec and enumerates its job list in the
// deterministic order the sink contract is defined over.
func (s Spec) Resolve() ([]runner.Job, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("sweepd: spec needs a name")
	}
	jobs, err := s.Jobs()
	if err != nil {
		return nil, fmt.Errorf("sweepd: spec %q: %w", s.Name, err)
	}
	return jobs, nil
}

// SweepID derives the sweep's content ID from its resolved identity:
// the name plus every job's content key and coordinate, in enumeration
// order. Two specs that resolve to the same job sequence, however
// spelled, are the same sweep and share state, results, and resume;
// execution policy (Options) is not content.
func SweepID(name string, jobs []runner.Job) string {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	for _, j := range jobs {
		h.Write([]byte(j.ID))
		h.Write([]byte{0})
		h.Write([]byte(j.Coord()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}
