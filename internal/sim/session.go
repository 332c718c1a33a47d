package sim

import (
	"context"
	"fmt"

	"banshee/internal/stats"
)

// stepQuantum is the instruction batch a managed run advances between
// cancellation checks: large enough that the per-batch bookkeeping
// (heap refill, context poll) is noise, small enough that cancellation
// lands within a fraction of a millisecond of simulated work.
const stepQuantum = 1 << 16

// Session is a stepwise simulation run: a width-1 Gang — one lane
// over a front-end stream of its own — plus the lifecycle around it.
// Where Run is fire-and-forget, a Session can advance in increments
// (Step), report where it is (Progress), capture windowed statistics
// mid-flight (Snapshot), sample a time series (OnEpoch), and run to
// completion under a context (Run) — cancellation returns the partial
// measurement window alongside ctx.Err().
//
// A stepped run is bit-identical to a one-shot run: stepping changes
// when the caller observes the simulation, never what it computes.
// Sessions are single-goroutine objects; run distinct Sessions in
// parallel instead of sharing one.
type Session struct {
	g *Gang
}

// NewSession assembles a run of the named workload under the named
// scheme on top of cfg, resolving the scheme display name exactly as
// Run does (tuning fields pre-set on cfg.Scheme are preserved).
func NewSession(cfg Config, workload, scheme string) (*Session, error) {
	spec, err := ResolveScheme(scheme, cfg.Scheme)
	if err != nil {
		return nil, err
	}
	cfg.Workload = workload
	cfg.Scheme = spec
	return NewSessionConfig(cfg)
}

// NewSessionConfig assembles a run of cfg exactly as given
// (cfg.Workload and cfg.Scheme must be fully populated).
func NewSessionConfig(cfg Config) (*Session, error) {
	g, err := NewGang([]Config{cfg})
	if err != nil {
		return nil, err
	}
	return &Session{g: g}, nil
}

// System returns the session's lane: the underlying assembled system
// (diagnostics, tests).
func (s *Session) System() *System { return s.g.Lane(0) }

// Step advances the run until at least n more instructions have
// retired across all cores, returning done=true once the instruction
// budget is exhausted. The steady-state Step path does not allocate.
// Errors (trace-replay corruption, a recording that ran out, a
// cancelled Run) are terminal: the run stops, resources are released,
// and every later call returns the same error.
func (s *Session) Step(n uint64) (done bool, err error) { return s.g.Step(n) }

// Run drives the session to completion under ctx; see Gang.Run. On
// cancellation it stops at the next step boundary, releases the run's
// resources, and returns the partial measurement window captured at
// that instant together with an error wrapping ctx.Err() — so
// errors.Is(err, context.Canceled) (or DeadlineExceeded) identifies
// interruption, and the returned stats remain internally consistent
// for reporting.
//
// Run on a session that already reached a terminal state reports that
// state (the final stats, or the terminal error) without consulting
// ctx — a cancelled context cannot retroactively fail a finished run.
func (s *Session) Run(ctx context.Context) (stats.Sim, error) {
	sts, err := s.g.Run(ctx)
	return sts[0], err
}

// Result returns the final statistics of a completed run. Calling it
// before completion (or after a failed run) returns an error.
func (s *Session) Result() (stats.Sim, error) {
	sys := s.System()
	if err := sys.Err(); err != nil {
		return stats.Sim{}, err
	}
	if !sys.Done() {
		p := sys.Progress()
		return stats.Sim{}, fmt.Errorf("sim: session still running (%d of %d instructions)",
			p.Retired, p.Total)
	}
	return sys.final, nil
}

// Progress reports where the run is: instructions retired against the
// budget, the simulated clock, and the lifecycle phase.
func (s *Session) Progress() Progress { return s.System().Progress() }

// Snapshot captures the current measurement window without disturbing
// the run; see System.Snapshot for windowing semantics.
func (s *Session) Snapshot() stats.Snapshot { return s.System().Snapshot() }

// OnEpoch registers fn to receive a windowed snapshot every `every`
// retired instructions; see System.OnEpoch for exact boundary
// semantics. Use it to sample a time series (MPKI, bandwidth) while
// the run progresses.
func (s *Session) OnEpoch(every uint64, fn func(stats.Snapshot)) {
	s.System().OnEpoch(every, fn)
}

// MSHRStalls reports MSHR-full stall events and the core cycles lost
// to them; see System.MSHRStalls.
func (s *Session) MSHRStalls() (stalls, cycles uint64) { return s.System().MSHRStalls() }

// Err returns the session's terminal error, if any.
func (s *Session) Err() error { return s.g.Err() }

// Close releases the session's resources (replayed trace files hold an
// open file). Completed and cancelled runs release themselves; Close
// is for abandoning a session early. Idempotent.
func (s *Session) Close() error { return s.g.Close() }

// Progress reports where a run is, for progress bars and logs.
type Progress struct {
	// Retired is the number of instructions retired so far, summed over
	// all cores; Total is the run's instruction budget. Their ratio is
	// the run's completion fraction.
	Retired, Total uint64
	// Cycles is the simulated wall clock (max core clock).
	Cycles uint64
	// Phase is the run's lifecycle phase (warmup, measure, done).
	Phase stats.Phase
}

// Fraction returns completion as a value in [0,1].
func (p Progress) Fraction() float64 {
	if p.Total == 0 {
		return 0
	}
	f := float64(p.Retired) / float64(p.Total)
	if f > 1 {
		f = 1
	}
	return f
}
