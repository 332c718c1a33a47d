package sim

import (
	"context"
	"errors"
	"fmt"

	"banshee/internal/cache"
	"banshee/internal/dram"
	"banshee/internal/errs"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// core is one simulated CPU's replay state.
type core struct {
	id      int
	time    uint64 // local clock in CPU cycles
	pending uint64 // stall cycles to apply before the next event
	fract   int    // sub-cycle instruction remainder at IssueWidth

	outstanding []uint64 // completion times of in-flight LLC misses
	outMin      uint64   // running min of outstanding (valid when non-empty)
	retired     uint64   // instructions retired
	done        bool

	prefetch *Prefetcher // nil when disabled

	// Cursors into this core's front-end stream (gang.go).
	evIdx  uint64 // next event index
	resIdx uint64 // next residual record
	shotAt uint64 // evIdx at this lane's last TLB shootdown (mc.SWCost.FlushTLBs)
}

// System is a fully assembled simulation: one lane — the back end from
// the L3 down — over a front-end stream (gang.go). A width-1 Gang gives
// its lane a stream of its own; a wider Gang runs several lanes over
// one. Gang.Lane exposes a lane, driven incrementally with Step;
// Session is the managed handle most callers want. Not safe for
// concurrent use; run distinct Systems in parallel instead.
type System struct {
	cfg      Config
	stream   *gangStream
	pageSize mem.PageSize // the run's page size: every L3 line's meta and request's Size
	cores    []*core
	l3       *cache.Cache
	scheme   mc.Scheme
	inPkg    *dram.DRAM
	offPkg   *dram.DRAM
	rng      *util.RNG
	batch    bool // batchShared may replay runs of events (registry.Batchable)

	st       stats.Sim
	warmed   bool
	warmMark mark // counters at the end of warmup

	// MSHR back-pressure diagnostics: how often a core's miss window
	// filled and how many cycles it lost waiting for the earliest
	// outstanding completion. System-level observability counters (whole
	// run, not warmup-windowed) — deliberately not part of stats.Sim, so
	// the reported statistics schema is unchanged.
	mshrStalls      uint64
	mshrStallCycles uint64

	// Stepper state: the run is a resumable loop over the core heap,
	// advanced by Step in instruction-count increments. The warmup
	// snapshot, epoch samples, and the final measurement window are all
	// windows between two marks of the same capture mechanism.
	h            coreQueue
	started      bool
	finished     bool
	closed       bool
	runErr       error
	totalRetired uint64
	totalBudget  uint64 // InstrPerCore × cores
	warmTarget   uint64 // retired instructions ending warmup
	final        stats.Sim

	// Latched trace-replay failure surface (file sources only).
	srcErr func() error

	// Epoch sampling (OnEpoch). epochNext is the next absolute
	// retirement multiple to sample at, so boundary overshoot never
	// drifts the sample points away from k×epochEvery.
	epochEvery uint64
	epochNext  uint64
	epochFn    func(stats.Snapshot)
	epochMark  mark
}

// mark is one capture point of the windowed-snapshot mechanism: the
// cumulative counters (scheme-internal totals folded in), instructions
// retired, and the wall clock at one instant. A window is the fieldwise
// difference between two marks.
type mark struct {
	st      stats.Sim
	retired uint64
	cycles  uint64
}

// coreQueue is the per-event scheduler: a binary min-heap of cores
// ordered by (local time, id), with devirtualized sift loops that box
// and allocate nothing. Each entry keeps its core's key inline, so a
// compare reads no *core; only the root's clock moves while it is
// queued, and Step writes it back before sifting. The key is unique per
// core, so the pop order — and therefore the simulation — is identical
// to any correct min-heap's.
type coreQueue []queued

type queued struct {
	time uint64
	id   int
	c    *core
}

func (q coreQueue) less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].id < q[j].id
}

// pop removes the earliest core.
func (q *coreQueue) pop() {
	h := *q
	n := len(h) - 1
	h[0] = h[n]
	h[n] = queued{} // release the reference
	*q = h[:n]
	q.siftDown(0)
}

// siftDown restores heap order below slot i.
func (q coreQueue) siftDown(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// start initializes the scheduling heap; the first Step calls it. Every
// core starts at time 0, so the cores in id order are already a heap.
func (s *System) start() {
	s.h = make(coreQueue, 0, len(s.cores))
	for _, c := range s.cores {
		s.h = append(s.h, queued{time: c.time, id: c.id, c: c})
	}
	s.started = true
}

// Step advances the simulation until at least n more instructions have
// retired across all cores (or the budget is exhausted), returning
// done=true once the run is complete. It surfaces latched trace-replay
// failures (decode corruption, a recording that ran out) as typed
// errors; a failed run is terminal and keeps returning the same error.
// The warmup snapshot, epoch samples, and final window all happen
// inside Step at the exact retirement boundaries they would in a
// one-shot run, so a stepped run's statistics are bit-identical to
// Run's regardless of the step size.
func (s *System) Step(n uint64) (done bool, err error) {
	if s.runErr != nil {
		return false, s.runErr
	}
	if s.finished {
		return true, nil
	}
	if !s.started {
		s.start()
	}
	target := s.totalRetired + n
	for len(s.h) > 0 && s.totalRetired < target {
		// Fused pop-push: step the heap top in place and sift it down,
		// instead of pop → step → push. The (time, id) key is unique, so
		// re-keying the root and sifting selects the same next core as a
		// full pop/push cycle would — the event order is identical — at
		// half the heap traffic.
		c := s.h[0].c
		if c.pending > 0 {
			c.time += c.pending
			c.pending = 0
		}
		before := c.retired
		s.stepShared(c)
		if s.batch {
			s.batchShared(c)
		}
		s.totalRetired += c.retired - before

		// warmTarget == 0 (WarmupFrac 0) means no warmup at all: the
		// whole run is the measurement window (the zero warmMark is the
		// run's start), so no mark is ever captured.
		if !s.warmed && s.warmTarget > 0 && s.totalRetired >= s.warmTarget {
			s.warmed = true
			s.warmMark = s.markNow()
		}
		if s.epochFn != nil && s.totalRetired >= s.epochNext {
			s.fireEpoch()
		}
		if c.retired >= s.cfg.InstrPerCore {
			c.done = true
			s.h.pop()
		} else {
			s.h[0].time = c.time
			s.h.siftDown(0)
		}
	}
	if err := s.sourceErr(); err != nil {
		s.fail(err)
		return false, s.runErr
	}
	if len(s.h) == 0 {
		s.finish()
		return true, nil
	}
	return false, nil
}

// sourceErr reports a latched trace-replay failure: a decode error
// (wrapping errs.ErrTraceCorrupt) or a stream that ran out (wrapping
// errs.ErrTraceWrapped) — either disqualifies the run's statistics.
func (s *System) sourceErr() error {
	if s.srcErr == nil {
		return nil
	}
	err := s.srcErr()
	if errors.Is(err, errs.ErrTraceWrapped) {
		return fmt.Errorf(
			"sim: %q records fewer events than the run consumed (record more events per core or lower InstrPerCore): %w",
			s.cfg.Workload, err)
	}
	return err
}

// fail terminates the run with err; the source is released and every
// later Step returns the same error.
func (s *System) fail(err error) {
	s.runErr = err
	s.finished = true
	s.closeSource()
}

// finish computes the final measurement window and releases the source.
func (s *System) finish() {
	s.finished = true
	s.final = s.windowSince(s.warmMark) // zero mark when never warmed
	s.closeSource()
}

// closeSource releases the lane's hold on its stream; idempotent. The
// stream's source (a replayed trace file may hold one open) is closed
// once every lane over it has let go, so a gang lane finishing never
// pulls the source out from under its siblings.
func (s *System) closeSource() {
	if s.closed {
		return
	}
	s.closed = true
	s.stream.release()
}

// MSHRStalls reports how many times a core's MSHR window filled and
// stalled the core, and the total core cycles lost to those stalls.
// Cumulative over the whole run (warmup included) — a structural
// back-pressure diagnostic, not a windowed measurement.
func (s *System) MSHRStalls() (stalls, cycles uint64) {
	return s.mshrStalls, s.mshrStallCycles
}

// Done reports whether the run has completed (or failed terminally).
func (s *System) Done() bool { return s.finished }

// Err returns the terminal run error, if any.
func (s *System) Err() error { return s.runErr }

// markNow captures the cumulative counters at this instant, folding the
// scheme's internal running totals (Remaps, TagBufferFlushes, ...) into
// the copy so windows between marks cover every counter uniformly.
func (s *System) markNow() mark {
	st := s.st
	s.scheme.FillStats(&st)
	return mark{st: st, retired: s.totalRetired, cycles: s.maxCycles()}
}

// maxCycles is the simulated wall clock: the furthest core clock.
func (s *System) maxCycles() uint64 {
	var cycles uint64
	for _, c := range s.cores {
		if c.time > cycles {
			cycles = c.time
		}
	}
	return cycles
}

// windowSince returns the counters accumulated since m, with the
// window's instruction and cycle spans filled in.
func (s *System) windowSince(m mark) stats.Sim {
	return s.windowBetween(s.markNow(), m)
}

// windowBetween is windowSince with the current mark already captured.
func (s *System) windowBetween(cur, m mark) stats.Sim {
	out := stats.Sub(cur.st, m.st)
	out.Workload = s.cfg.Workload
	out.Scheme = s.scheme.Name()
	out.Instructions = cur.retired - m.retired
	out.Cycles = cur.cycles - m.cycles
	return out
}

// phase reports the run's lifecycle phase. A zero warmup target means
// the run measures from its first instruction.
func (s *System) phase() stats.Phase {
	switch {
	case s.finished:
		return stats.PhaseDone
	case s.warmed || s.warmTarget == 0:
		return stats.PhaseMeasure
	}
	return stats.PhaseWarmup
}

// Progress reports where the run is: instructions retired against the
// budget, the wall clock, and the phase. Cheap enough to poll.
func (s *System) Progress() Progress {
	return Progress{
		Retired: s.totalRetired,
		Total:   s.totalBudget,
		Cycles:  s.maxCycles(),
		Phase:   s.phase(),
	}
}

// Snapshot captures the current measurement window: counters since the
// end of warmup (or since the start of the run while still warming up),
// every counter — scheme-internal ones included — windowed uniformly.
// At completion it equals the final statistics Run returns.
func (s *System) Snapshot() stats.Snapshot {
	cur := s.markNow()
	return stats.Snapshot{
		Retired: cur.retired,
		Cycles:  cur.cycles,
		Phase:   s.phase(),
		Window:  s.windowBetween(cur, s.warmMark),
	}
}

// OnEpoch registers fn to receive a windowed snapshot every `every`
// retired instructions — exactly: at the first retirement boundary at
// or past each absolute multiple of `every`; an event retiring many
// instructions at once fires at most one sample and skips the
// multiples it jumped over, so sample points never drift from the
// k×every grid. Each sample's window spans from the previous sample
// (or the registration point), so the sequence is a time series of
// per-epoch rates. Observation only — hooks cannot perturb the
// simulation, so stepped, hooked, and one-shot runs stay
// bit-identical. Registering mid-run starts the first window at the
// current position; a nil fn or zero interval clears the hook.
func (s *System) OnEpoch(every uint64, fn func(stats.Snapshot)) {
	if fn == nil || every == 0 {
		s.epochFn = nil
		s.epochEvery = 0
		return
	}
	s.epochEvery = every
	s.epochFn = fn
	s.epochMark = s.markNow()
	s.epochNext = (s.totalRetired/every + 1) * every
}

// fireEpoch emits one epoch sample, starts the next window, and
// schedules the next sample at the first multiple past the current
// position.
func (s *System) fireEpoch() {
	cur := s.markNow()
	snap := stats.Snapshot{
		Retired: cur.retired,
		Cycles:  cur.cycles,
		Phase:   s.phase(),
		Window:  s.windowBetween(cur, s.epochMark),
	}
	s.epochMark = cur
	s.epochNext = (s.totalRetired/s.epochEvery + 1) * s.epochEvery
	s.epochFn(snap)
}

// fillL3 pushes an L2 dirty eviction into the shared L3.
func (s *System) fillL3(c *core, a mem.Addr) {
	if ev := s.l3.Fill(a, true, uint8(s.pageSize)); ev != nil {
		s.evictToMC(c, ev)
	}
}

// evictToMC sends an LLC dirty write-back to the memory controller. It
// never consulted a TLB (Request.Eviction): the page-size bit on the
// line (§4.3), which is the run's page size, routes it.
func (s *System) evictToMC(c *core, ev *cache.Eviction) {
	s.st.LLCEvictions++
	req := mem.Request{
		Addr:     ev.Addr,
		Write:    true,
		Core:     c.id,
		Size:     s.pageSize,
		Eviction: true,
	}
	s.execute(c, req, c.time)
}

// llcMiss issues a demand miss to the memory controller with
// MSHR-limited overlap.
func (s *System) llcMiss(c *core, a mem.Addr, write bool) {
	s.st.LLCMisses++
	// Retire completed misses; if the window is full, stall to the
	// earliest completion. drain keeps outMin current, so the stall
	// target is O(1) instead of a scan over the MSHR window, and the
	// scan itself is skipped while the earliest outstanding completion
	// is still in the future (it would remove nothing).
	if len(c.outstanding) > 0 && c.outMin <= c.time {
		c.drain()
	}
	if len(c.outstanding) >= s.cfg.MSHRs {
		if c.outMin > c.time {
			s.mshrStalls++
			s.mshrStallCycles += c.outMin - c.time
			c.time = c.outMin
		}
		c.drain()
	}
	req := mem.Request{
		Addr:  a,
		Write: write,
		Core:  c.id,
		Size:  s.pageSize,
	}
	start := c.time
	completion := s.execute(c, req, c.time)
	if completion > start {
		s.st.MissLatSum += completion - start
		s.st.MissLatCount++
	}
	// A fraction of misses are dependence-critical: the core blocks on
	// them (pointer chasing); the rest overlap within the MSHR window.
	if s.rng.Bool(s.cfg.DepStallFrac) {
		if completion > c.time {
			c.time = completion
		}
	} else {
		if len(c.outstanding) == 0 || completion < c.outMin {
			c.outMin = completion
		}
		c.outstanding = append(c.outstanding, completion)
	}
}

// drain retires outstanding misses that completed by the core's clock,
// tracking the running minimum of the survivors for llcMiss's stall.
func (c *core) drain() {
	out := c.outstanding[:0]
	min := ^uint64(0)
	for _, t := range c.outstanding {
		if t > c.time {
			out = append(out, t)
			if t < min {
				min = t
			}
		}
	}
	c.outstanding = out
	c.outMin = min
}

// execute runs a request through the scheme and times its DRAM ops,
// returning the critical-path completion time.
func (s *System) execute(c *core, req mem.Request, now uint64) uint64 {
	res := s.scheme.Access(req)
	if !req.Eviction {
		if res.Hit {
			s.st.DCHits++
		} else {
			s.st.DCMisses++
		}
	}
	return s.executeOps(c, res, now)
}

// executeOps times a scheme result's DRAM operations and applies its
// software costs, returning the critical-path completion time.
func (s *System) executeOps(c *core, res mc.Result, now uint64) uint64 {
	// Stage-ordered execution: stage N opens when stage N-1's critical
	// ops complete; background ops issue at stage open and overlap.
	stageStart := now
	maxStage := uint8(0)
	for _, op := range res.Ops {
		if op.Stage > maxStage {
			maxStage = op.Stage
		}
	}
	completion := now
	for st := uint8(0); st <= maxStage; st++ {
		critEnd := stageStart
		for _, op := range res.Ops {
			if op.Stage != st {
				continue
			}
			var d *dram.DRAM
			var tr *stats.Traffic
			if op.Target == mem.InPackage {
				d, tr = s.inPkg, &s.st.InPkg
			} else {
				d, tr = s.offPkg, &s.st.OffPkg
			}
			var done uint64
			if op.Fused {
				done = d.Extend(op.Addr, op.Bytes, op.Write, op.Critical)
			} else {
				done = d.Access(stageStart, op.Addr, op.Bytes, op.Write, op.Critical)
			}
			tr.Add(op.Class, uint64(op.Bytes))
			if op.Critical && done > critEnd {
				critEnd = done
			}
		}
		stageStart = critEnd
		completion = critEnd
	}

	// Software costs: the initiator stalls the requesting core; every
	// other core picks up its share at its next scheduling point. A
	// shootdown precedes every core's next event (gang.go).
	for _, sw := range res.SW {
		if sw.FlushTLBs {
			for _, o := range s.cores {
				o.shotAt = o.evIdx
			}
		}
		c.time += sw.InitiatorCycles
		s.st.SWStallCycles += sw.InitiatorCycles
		if sw.AllCoresCycles > 0 {
			for _, other := range s.cores {
				if other.id != c.id && !other.done {
					other.pending += sw.AllCoresCycles
				}
			}
			s.st.SWStallCycles += sw.AllCoresCycles * uint64(len(s.cores)-1)
		}
	}
	return completion
}

// Run is the package-level convenience: build a session for (workload,
// scheme display name) on top of cfg and run it to completion.
//
// Run replaces cfg.Scheme with the named scheme's spec, except that
// scheme-tuning fields already set on cfg.Scheme (sampling coefficient,
// ways, thresholds, buffer sizes, PTE-update cost, epoch length) are
// preserved — so sweeps can tune a scheme and still select it by name.
// Use NewSessionConfig to run a fully hand-built Config verbatim, and
// NewSession for incremental or cancellable runs.
func Run(cfg Config, workload, scheme string) (stats.Sim, error) {
	sess, err := NewSession(cfg, workload, scheme)
	if err != nil {
		return stats.Sim{}, err
	}
	return sess.Run(context.Background())
}
