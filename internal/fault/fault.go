// Package fault is a deterministic fault-injection subsystem for
// chaos-testing the simulator's batch layers. An Injector derives
// every fault decision from a hash of (plan seed, subject key) — for
// the batch engine the key is the job's content ID — so a chaos run is
// exactly reproducible: the same plan over the same sweep injects the
// same panics, errors, stalls, and torn writes every time, on any
// machine. Nothing here touches the simulation's own RNG streams, so
// jobs that survive injection produce bit-identical results to a
// fault-free run.
//
// The injector wraps each layer the robustness substrate defends:
//
//   - Runner: wraps a runner.JobRunner with injected panics, errors,
//     and stalls around (or instead of) real simulations — the seam
//     the engine's supervision, retry, and ledger behavior is proven
//     against.
//   - Source: wraps a workload.Source with a fault that fires at a
//     deterministic event index — a panic mid-stream, a latched decode
//     error, or a latency stall.
//   - ReaderAt: flips a deterministic bit (or fails reads) under a
//     tracefile reader, exercising the .btrc CRC error paths.
//   - Writer: injects short writes and write errors into a checkpoint
//     sink's stream, producing the torn tails resume must repair.
//
// Importing the package also registers the "fault:<spec>:<inner>"
// workload kind, making source-level chaos reachable from any CLI or
// matrix by workload name alone.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"banshee/internal/runner"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// ErrInjected is the sentinel every injected (non-panic) failure
// wraps, so tests and ledger consumers can tell synthetic faults from
// organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// Mode is the fault a subject key draws.
type Mode int

// Fault modes, in decision-precedence order.
const (
	None  Mode = iota
	Panic      // panic mid-operation
	Err        // injected error (decode/write/run failure)
	Stall      // latency stall of Plan.Stall before proceeding
	Short      // torn write: half the bytes, then an error (Writer only)
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Err:
		return "err"
	case Stall:
		return "stall"
	case Short:
		return "short"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Plan configures an Injector: what fraction of subject keys draw each
// fault mode, and how faults behave. Rates are cumulative-exclusive: a
// key draws one mode (or none), with panic taking precedence, then
// err, stall, short.
type Plan struct {
	// Seed perturbs every decision hash; two plans with different
	// seeds select different victim keys at the same rates.
	Seed uint64
	// PanicRate, ErrRate, StallRate, ShortRate are the fractions of
	// keys (in [0,1]) that draw each mode.
	PanicRate, ErrRate, StallRate, ShortRate float64
	// Stall is how long a Stall-mode fault blocks (default 1ms).
	Stall time.Duration
	// FailAttempts makes runner faults transient: attempts 1 through
	// FailAttempts fail, later attempts pass through clean. 0 means
	// permanent — every attempt fails.
	FailAttempts int
	// FaultAfter bounds the event index at which a Source fault fires
	// (the index is hashed into [1, FaultAfter]; default 4096).
	FaultAfter uint64
}

func (p Plan) stall() time.Duration {
	if p.Stall <= 0 {
		return time.Millisecond
	}
	return p.Stall
}

func (p Plan) faultAfter() uint64 {
	if p.FaultAfter == 0 {
		return 4096
	}
	return p.FaultAfter
}

// Injector makes deterministic fault decisions. Safe for concurrent
// use; the only mutable state is the per-key attempt counter behind
// transient runner faults.
type Injector struct {
	plan     Plan
	mu       sync.Mutex
	attempts map[string]int
}

// New returns an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, attempts: map[string]int{}}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// roll hashes (seed, key, salt) into [0,1).
func (in *Injector) roll(key, salt string) float64 {
	return util.HashUnit(in.key(key, salt))
}

// hash hashes (seed, key, salt) for integer draws (fault positions).
func (in *Injector) hash(key, salt string) uint64 {
	return util.Hash64(in.key(key, salt))
}

func (in *Injector) key(key, salt string) string {
	return fmt.Sprintf("%d|%s|%s", in.plan.Seed, key, salt)
}

// ModeFor returns the fault mode the key draws under the plan.
func (in *Injector) ModeFor(key string) Mode {
	r := in.roll(key, "mode")
	p := in.plan
	for _, m := range []struct {
		rate float64
		mode Mode
	}{{p.PanicRate, Panic}, {p.ErrRate, Err}, {p.StallRate, Stall}, {p.ShortRate, Short}} {
		if r < m.rate {
			return m.mode
		}
		r -= m.rate
	}
	return None
}

// shouldFault reports whether the key's next attempt faults,
// advancing its attempt counter. Permanent plans always fault;
// transient plans fault the first FailAttempts attempts.
func (in *Injector) shouldFault(key string) bool {
	if in.plan.FailAttempts <= 0 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts[key]++
	return in.attempts[key] <= in.plan.FailAttempts
}

// Runner wraps a JobRunner with per-job fault injection keyed by each
// job's content ID. inner nil means runner.Simulate. A group — one
// job, or the lanes of a gang — faults if any member draws a fault:
// the engine retries a faulted single and falls a faulted gang back to
// singles, so every job still meets its own draw. Groups whose members
// all draw None — or whose transient fault budgets are spent — pass
// through to inner untouched, so surviving results are bit-identical
// to a fault-free run.
func (in *Injector) Runner(inner runner.JobRunner) runner.JobRunner {
	if inner == nil {
		inner = runner.Simulate
	}
	return func(ctx context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		for _, job := range jobs {
			switch mode := in.ModeFor(job.ID); mode {
			case Panic, Err, Short:
				if in.shouldFault(job.ID) {
					recordFault(mode)
					if mode == Panic {
						panic(fmt.Sprintf("fault: injected panic in job %s", job.ID))
					}
					return nil, fmt.Errorf("fault: job %s: %w", job.ID, ErrInjected)
				}
			case Stall:
				if in.shouldFault(job.ID) {
					recordFault(Stall)
					t := time.NewTimer(in.plan.stall())
					select {
					case <-ctx.Done():
						t.Stop()
						return nil, ctx.Err()
					case <-t.C:
					}
				}
			}
		}
		return inner(ctx, jobs)
	}
}
