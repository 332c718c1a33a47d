// Package runner is the generic batch run engine: it executes a
// declarative Matrix of simulations (workloads × schemes × config
// points × seeds) on a worker pool that takes jobs in enumeration
// order, streams every result to a JSONL sink in that order as it
// completes, and resumes interrupted sweeps by skipping jobs whose
// results are already on disk.
//
// Jobs are content-keyed: a job's ID is a hash of its fully resolved
// sim.Config, so a result on disk is reused only when the workload,
// scheme spec, seed, instruction budget, and every other knob match
// exactly — stale results from an edited sweep are re-simulated, and
// identical configurations reached through different sweep labels are
// simulated once and recorded under each label.
package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"banshee/internal/sim"
	"banshee/internal/stats"
)

// Point is one setting of a matrix's config-override axis: a label for
// result lookup plus Set, a partial sim.Config JSON object overlaid onto
// the fully resolved config (after workload, scheme, and seed are in
// place), such as
//
//	{"InPkgLatScale": 0.5, "Scheme": {"BansheeWays": 8}}
//
// Fields present override the resolved config, fields absent leave it
// alone, and a field sim.Config does not have is an error. An empty Set
// is a valid unmodified point.
type Point struct {
	Label string          `json:"label,omitempty"`
	Set   json.RawMessage `json:"set,omitempty"`
}

// Matrix is a declarative batch of simulations: the cross product of
// Workloads × Schemes × Points × Seeds over a base config. It is plain
// data, so the same value runs locally and is a sweep service's wire
// form.
type Matrix struct {
	// Name labels the matrix in records and progress output.
	Name string `json:"name"`
	// Base is the configuration every job starts from.
	Base sim.Config `json:"base,omitempty"`
	// Workloads and Schemes are the primary axes (display names).
	Workloads []string `json:"workloads,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	// Points is the config-override axis; nil means one unmodified
	// point with an empty label.
	Points []Point `json:"points,omitempty"`
	// Seeds is the seed axis; nil means the base config's seed.
	Seeds []uint64 `json:"seeds,omitempty"`
}

// Job is one resolved simulation of a matrix.
type Job struct {
	ID       string
	Matrix   string
	Label    string
	Workload string
	Scheme   string
	Seed     uint64
	Config   sim.Config
}

// Coord is the job's sweep coordinate — the key aggregators look
// results up under.
func (j Job) Coord() string {
	return coordKey(j.Matrix, j.Label, j.Workload, j.Scheme, j.Seed)
}

func coordKey(matrix, label, workload, scheme string, seed uint64) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d", matrix, label, workload, scheme, seed)
}

// Jobs enumerates the matrix in deterministic order (points, then
// workloads, then schemes, then seeds), fully resolving each config.
// An axis that repeats a value would put two jobs at one coordinate,
// where a ResultSet sees only one of them, so it is an error, and so
// is a point override that does not decode onto sim.Config. A scheme
// that caches 2 MB pages runs only on 2 MB pages, so such a job gets
// LargePages whatever the base or the point says.
func (m Matrix) Jobs() ([]Job, error) {
	if len(m.Workloads) == 0 || len(m.Schemes) == 0 {
		return nil, fmt.Errorf("runner: matrix %q needs at least one workload and one scheme", m.Name)
	}
	points := m.Points
	if len(points) == 0 {
		points = []Point{{}}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{m.Base.Seed}
	}
	jobs := make([]Job, 0, len(points)*len(m.Workloads)*len(m.Schemes)*len(seeds))
	seen := make(map[string]bool, cap(jobs))
	for _, p := range points {
		for _, w := range m.Workloads {
			for _, s := range m.Schemes {
				for _, seed := range seeds {
					coord := coordKey(m.Name, p.Label, w, s, seed)
					if seen[coord] {
						return nil, fmt.Errorf("runner: matrix %q repeats coordinate %s", m.Name, coord)
					}
					seen[coord] = true
					cfg := m.Base
					cfg.Workload = w
					cfg.Seed = seed
					spec, err := sim.ResolveScheme(s, cfg.Scheme)
					if err != nil {
						return nil, fmt.Errorf("runner: matrix %q: %w", m.Name, err)
					}
					cfg.Scheme = spec
					if len(p.Set) > 0 {
						if err := DecodeStrict(p.Set, &cfg); err != nil {
							return nil, fmt.Errorf("runner: matrix %q point %q: bad override: %w", m.Name, p.Label, err)
						}
					}
					cfg.LargePages = cfg.LargePages || cfg.Scheme.BansheeLargePages
					jobs = append(jobs, Job{
						ID:       jobID(cfg),
						Matrix:   m.Name,
						Label:    p.Label,
						Workload: w,
						Scheme:   s,
						Seed:     seed,
						Config:   cfg,
					})
				}
			}
		}
	}
	return jobs, nil
}

// BaseSeed is the seed ResultSet.Get defaults to: the first of the
// seed axis, or the base config's seed without one.
func (m Matrix) BaseSeed() uint64 {
	if len(m.Seeds) > 0 {
		return m.Seeds[0]
	}
	return m.Base.Seed
}

// DecodeStrict unmarshals one JSON value into v, rejecting object keys
// that name no field of v and anything after the value. Decoding onto
// a populated v overlays it: fields the JSON leaves out keep their
// values.
func DecodeStrict(data []byte, v any) error {
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

// jobID content-keys a fully resolved config: equal configs — and only
// equal configs — share an ID.
func jobID(cfg sim.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		// sim.Config is plain data; failure to encode it is a bug.
		panic(fmt.Sprintf("runner: config not encodable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// JobKey returns the content key of a fully resolved configuration —
// the ID a batch job with this exact config carries in streamed
// records, ledger entries, and sweep status output. Clients correlate
// those streams by recomputing the key instead of reimplementing the
// hash.
func JobKey(cfg sim.Config) string { return jobID(cfg) }

// Record is one job as stored in a checkpoint JSONL stream: the
// success stream (Engine.Sink) or the failure ledger
// (Engine.FailedOut). Both are written by Sink.Append, one
// CRC-checked line per record, and read back by the same decoder
// (resume and ParseRecords). Success records carry a Result and leave
// the failure fields zero — their JSON encoding is exactly what it was
// before supervision existed, which is what keeps the success stream's
// byte-identical resume guarantee intact. Ledger records carry an
// empty Result plus the failure context.
type Record struct {
	ID       string    `json:"id"`
	Matrix   string    `json:"matrix"`
	Label    string    `json:"label,omitempty"`
	Workload string    `json:"workload"`
	Scheme   string    `json:"scheme"`
	Seed     uint64    `json:"seed"`
	Result   stats.Sim `json:"result"`
	// Failure context (ledger records only).
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	Panicked bool   `json:"panic,omitempty"`
}

// ResultSet holds a completed matrix run, indexed for aggregation.
type ResultSet struct {
	matrix   string
	baseSeed uint64
	byCoord  map[string]Record
	records  []Record // enumeration order
	failed   []Record // enumeration order, supervised runs only
	failedBy map[string]Record
	// Executed counts jobs that were simulated; Cached counts jobs
	// served from the sink or deduplicated against an identical config.
	Executed int
	Cached   int
}

// Get returns the result at (label, workload, scheme) for the matrix's
// base seed. A coordinate whose job failed under supervision returns a
// zero Result — an explicit hole the aggregators render instead of
// aborting the whole figure. Coordinates the matrix never enumerated
// panic: experiment aggregations are code, not input, so those misses
// are bugs worth surfacing immediately.
func (rs *ResultSet) Get(label, workload, scheme string) stats.Sim {
	st, ok := rs.Lookup(label, workload, scheme, rs.baseSeed)
	if !ok {
		if _, failed := rs.failedBy[coordKey(rs.matrix, label, workload, scheme, rs.baseSeed)]; failed {
			return stats.Sim{}
		}
		panic(fmt.Sprintf("runner: matrix %s has no result at %s/%s/%s", rs.matrix, label, workload, scheme))
	}
	return st
}

// Lookup returns the result at a full coordinate, reporting presence.
func (rs *ResultSet) Lookup(label, workload, scheme string, seed uint64) (stats.Sim, bool) {
	r, ok := rs.byCoord[coordKey(rs.matrix, label, workload, scheme, seed)]
	return r.Result, ok
}

// Records returns every successful record in matrix enumeration order.
func (rs *ResultSet) Records() []Record { return rs.records }

// Failed returns the jobs that permanently failed under supervision,
// in matrix enumeration order. Each record carries the job's
// coordinates plus Attempts/Error/Panicked and an empty Result. Empty
// on an unsupervised (fail-fast) or fully successful run.
func (rs *ResultSet) Failed() []Record { return rs.failed }

// AssembleResultSet indexes records obtained elsewhere — streamed from
// a remote sweep service rather than executed here — into the
// ResultSet the aggregators consume. records and failed keep their
// given order; Executed/Cached stay zero (the remote engine did the
// counting).
func AssembleResultSet(name string, baseSeed uint64, records, failed []Record) *ResultSet {
	rs := &ResultSet{matrix: name, baseSeed: baseSeed,
		byCoord: make(map[string]Record, len(records)), failedBy: map[string]Record{}}
	for _, r := range records {
		rs.records = append(rs.records, r)
		rs.byCoord[coordKey(r.Matrix, r.Label, r.Workload, r.Scheme, r.Seed)] = r
	}
	for _, f := range failed {
		rs.failed = append(rs.failed, f)
		rs.failedBy[coordKey(f.Matrix, f.Label, f.Workload, f.Scheme, f.Seed)] = f
	}
	return rs
}
