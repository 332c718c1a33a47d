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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"banshee/internal/runner"
	"banshee/internal/sim"
)

// PointSpec is the wire form of one config-override point: a label
// plus a partial sim.Config JSON object overlaid onto the resolved
// config — the serializable counterpart of runner.Point's Mutate
// closure. An empty Set is a valid unmodified point.
type PointSpec struct {
	Label string `json:"label,omitempty"`
	// Set is a partial sim.Config object ({"InstrPerCore": 100000,
	// "Scheme": {"AlloyFillProb": 0.1}}); fields present override the
	// resolved config, fields absent leave it alone, and a field
	// sim.Config does not have is an error.
	Set json.RawMessage `json:"set,omitempty"`
}

// RunOptions tunes how the daemon executes a sweep. All fields are
// execution policy, not content: none of them change the sweep's
// output bytes, so they are excluded from the sweep ID.
type RunOptions struct {
	// GangWidth ≥ 2 lets the engine run that many gang-eligible jobs
	// as one lockstep gang.
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

// Spec is the wire form of a sweep: either declarative axes (Base ×
// Workloads × Schemes × Points × Seeds, the Matrix cross product) or a
// pre-resolved job list (Jobs) for clients that already enumerated a
// Matrix locally. Exactly one form must be used.
type Spec struct {
	Name      string      `json:"name"`
	Base      sim.Config  `json:"base,omitempty"`
	Workloads []string    `json:"workloads,omitempty"`
	Schemes   []string    `json:"schemes,omitempty"`
	Points    []PointSpec `json:"points,omitempty"`
	Seeds     []uint64    `json:"seeds,omitempty"`

	// Jobs is the pre-resolved form: fully resolved configs with their
	// coordinates. Job IDs are recomputed server-side from the configs
	// (the content key is authoritative; a stale ID is rejected).
	Jobs []runner.Job `json:"jobs,omitempty"`

	Options RunOptions `json:"options,omitempty"`
}

// UnmarshalJSON overlays the wire spec onto defaults: Base starts from
// sim.DefaultConfig(), so a hand-written spec.json states only the
// knobs it changes — the same overlay semantics PointSpec.Set has —
// instead of spelling out every config field. A field the spec has no
// place for is an error: dropped silently, a typo'd knob would run the
// default instead.
func (s *Spec) UnmarshalJSON(data []byte) error {
	type plain Spec // drop methods to avoid recursing
	a := plain(Spec{Base: sim.DefaultConfig()})
	if err := decodeStrict(data, &a); err != nil {
		return err
	}
	*s = Spec(a)
	return nil
}

// decodeStrict unmarshals one JSON value into v, rejecting object keys
// that name no field of v and anything after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("json: data after the value")
	}
	return nil
}

// SpecFromMatrix renders a locally declared Matrix into its wire form
// by enumerating its jobs — the bridge from closure-bearing Points to
// the serializable Spec.
func SpecFromMatrix(m runner.Matrix, o RunOptions) (Spec, error) {
	jobs, err := m.Jobs()
	if err != nil {
		return Spec{}, err
	}
	return Spec{Name: m.Name, Jobs: jobs, Options: o}, nil
}

// Resolve validates the spec and enumerates its job list in the
// deterministic order the sink contract is defined over. The returned
// baseSeed is what ResultSet.Get defaults to client-side.
func (s Spec) Resolve() (jobs []runner.Job, baseSeed uint64, err error) {
	if s.Name == "" {
		return nil, 0, fmt.Errorf("sweepd: spec needs a name")
	}
	if len(s.Jobs) > 0 {
		if len(s.Workloads) > 0 || len(s.Schemes) > 0 || len(s.Points) > 0 || len(s.Seeds) > 0 {
			return nil, 0, fmt.Errorf("sweepd: spec %q mixes pre-resolved jobs with matrix axes", s.Name)
		}
		seen := map[string]bool{}
		jobs = make([]runner.Job, len(s.Jobs))
		for i, j := range s.Jobs {
			want := runner.JobKey(j.Config)
			if j.ID != "" && j.ID != want {
				return nil, 0, fmt.Errorf("sweepd: spec %q job %d: ID %s does not match its config (content key %s)", s.Name, i, j.ID, want)
			}
			j.ID = want
			if j.Matrix == "" {
				j.Matrix = s.Name
			}
			if j.Matrix != s.Name {
				return nil, 0, fmt.Errorf("sweepd: spec %q job %d belongs to matrix %q", s.Name, i, j.Matrix)
			}
			coord := j.Coord()
			if seen[coord] {
				return nil, 0, fmt.Errorf("sweepd: spec %q repeats coordinate %s", s.Name, coord)
			}
			seen[coord] = true
			jobs[i] = j
		}
		return jobs, jobs[0].Seed, nil
	}
	m, err := s.matrix()
	if err != nil {
		return nil, 0, err
	}
	jobs, err = m.Jobs()
	if err != nil {
		return nil, 0, fmt.Errorf("sweepd: spec %q: %w", s.Name, err)
	}
	baseSeed = s.Base.Seed
	if len(s.Seeds) > 0 {
		baseSeed = s.Seeds[0]
	}
	return jobs, baseSeed, nil
}

// matrix converts the axes form into a runner.Matrix, validating every
// point override against the base config up front so the Mutate
// closures can never fail mid-enumeration.
func (s Spec) matrix() (runner.Matrix, error) {
	points := make([]runner.Point, len(s.Points))
	for i, p := range s.Points {
		if len(p.Set) > 0 {
			probe := s.Base
			if err := decodeStrict(p.Set, &probe); err != nil {
				return runner.Matrix{}, fmt.Errorf("sweepd: spec %q point %q: bad override: %w", s.Name, p.Label, err)
			}
		}
		set := p.Set
		points[i] = runner.Point{Label: p.Label, Mutate: func(cfg *sim.Config) {
			if len(set) > 0 {
				// Validated against Base above; overlay errors here would
				// be config-shape drift, which Resolve already rejected.
				_ = json.Unmarshal(set, cfg)
			}
		}}
	}
	return runner.Matrix{Name: s.Name, Base: s.Base,
		Workloads: s.Workloads, Schemes: s.Schemes, Points: points, Seeds: s.Seeds}, nil
}

// SweepID derives the sweep's content ID from its resolved identity:
// the name plus every job's content key and coordinate, in enumeration
// order. Two specs that resolve to the same job sequence — axes or
// pre-enumerated, however spelled — are the same sweep and share
// state, results, and resume; execution policy (Options) is not
// content.
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
