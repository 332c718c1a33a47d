package sweepd

import (
	"context"
	"fmt"
	"sync"
	"time"

	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/sim"
	"banshee/internal/stats"
)

// Broker is the job-lease exchange between the daemon's engines and
// attached worker processes. It wraps each sweep's JobRunner (runner):
// every one-job group is offered here first (Dispatch); if a worker
// claims it within the offer window the attempt runs remotely under a
// TTL'd lease, otherwise the offer is withdrawn and the job runs on the
// sweep's own runner. A lease is live until a report is accepted
// (resolved) or its deadline passes (expired); an expired lease
// resolves its Dispatch as declined — the same local fallback — and
// refuses a late result with ErrLeaseGone rather than double-recording
// the job: exactly one attempt outcome per Dispatch call, which is
// what keeps the sink free of duplicate records.
type Broker struct {
	ttl          time.Duration    // lease lifetime between renewals
	offerWait    time.Duration    // how long Dispatch dangles an unclaimed offer
	workerWindow time.Duration    // how recently a worker must have polled to count as attached
	now          func() time.Time // the broker's only clock read

	mu      sync.Mutex
	offers  []*offer
	notify  chan struct{}        // closed and replaced when an offer arrives
	leases  map[string]*lease    // every lease, live or dead, until pruned
	live    int                  // leases in leaseLive
	workers map[string]time.Time // worker name → last poll
	seq     uint64

	expiries *obs.Counter
	remoteOK *obs.Counter
	declined *obs.Counter
}

// ErrLeaseGone is returned to a worker renewing or resolving a lease
// the broker no longer holds — expired, cancelled, or never issued.
// The worker drops the result; the daemon has already arranged for the
// attempt to run elsewhere.
var ErrLeaseGone = fmt.Errorf("sweepd: lease expired or unknown")

// offer is one job attempt dangled before the worker pool.
type offer struct {
	job   runner.Job
	taken chan *lease // buffered 1; receives the lease when a worker claims
}

// leaseState is a lease's place in its lifecycle: live, then resolved
// or expired for good.
type leaseState uint8

const (
	leaseLive     leaseState = iota // the worker may renew and report until the deadline
	leaseResolved                   // a report was accepted; redeliveries of it succeed
	leaseExpired                    // the deadline passed or Dispatch gave up; the job re-ran locally
)

// lease is one claimed attempt, kept from its grant until pruned: the
// worker holds its ID and must renew within TTL until it reports.
type lease struct {
	id       string
	jobID    string
	state    leaseState
	deadline time.Time           // a live lease expires once the clock reaches it
	ended    time.Time           // when it left leaseLive; pruning ages dead leases by it
	result   chan attemptOutcome // buffered 1; receives the one accepted outcome
}

type attemptOutcome struct {
	st  stats.Sim
	err error
}

// NewBroker builds a broker with the given lease TTL (0 = 10s) and
// registers its service metrics on r (nil = unregistered).
func NewBroker(ttl time.Duration, r *obs.Registry) *Broker {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	b := &Broker{
		ttl:          ttl,
		offerWait:    ttl / 4,
		workerWindow: 90 * time.Second,
		now:          time.Now,
		notify:       make(chan struct{}),
		leases:       map[string]*lease{},
		workers:      map[string]time.Time{},
	}
	if r != nil {
		b.expiries = r.Counter("sweepd_lease_expiries_total", "leases that expired without a result (job re-ran locally)")
		b.remoteOK = r.Counter("sweepd_remote_results_total", "attempt outcomes delivered by attached workers")
		b.declined = r.Counter("sweepd_offers_declined_total", "dispatch offers no worker claimed in time")
		r.GaugeFunc("sweepd_workers_attached", "worker processes seen polling within the liveness window",
			func() float64 { return float64(b.Workers()) })
		r.GaugeFunc("sweepd_leases_outstanding", "job leases held by attached workers right now",
			func() float64 { b.mu.Lock(); defer b.mu.Unlock(); return float64(b.live) })
	}
	return b
}

// Workers counts the worker processes seen polling within the liveness
// window.
func (b *Broker) Workers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.workersLocked(b.now())
}

func (b *Broker) workersLocked(now time.Time) int {
	cutoff := now.Add(-b.workerWindow)
	n := 0
	for name, at := range b.workers {
		if at.Before(cutoff) {
			delete(b.workers, name)
			continue
		}
		n++
	}
	return n
}

// runner wraps local, a sweep's own JobRunner, so every one-job group
// is offered to attached workers before it runs in-process. A declined
// offer runs the job on local, and a gang always does: its lanes need
// the shared in-process front end. An accepted offer's result (or
// error) is the attempt's outcome, retried, ledgered and counted by the
// engine exactly like a local one. On reg, the sweep's scoped registry,
// it counts remote attempts and their failures, and folds a remote
// success's finals into the sim totals (the attempt bypassed the
// in-process lanes), so those totals still equal the sums over emitted
// results.
func (b *Broker) runner(reg *obs.Registry, local runner.JobRunner) runner.JobRunner {
	attempts := reg.Counter("banshee_remote_attempts_total", "job attempts executed by attached workers")
	failures := reg.Counter("banshee_remote_attempt_failures_total", "remote job attempts that returned an error")
	return func(ctx context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		if len(jobs) > 1 {
			return local(ctx, jobs)
		}
		st, ok, err := b.Dispatch(ctx, jobs[0])
		if !ok {
			return local(ctx, jobs)
		}
		attempts.Inc()
		if err != nil {
			failures.Inc()
			return nil, err
		}
		sim.FoldRemote(reg, st)
		return []stats.Sim{st}, nil
	}
}

// Dispatch offers one job attempt to the attached workers and blocks
// until it resolves: ok=true with a nil error is a completed remote
// attempt, ok=true with an error a failed one, and ok=false a declined
// offer. It declines immediately when no worker has polled recently —
// an unattended daemon must not stall every attempt for the offer
// window — and otherwise dangles the job until a worker claims it, its
// lease resolves, or its lease expires.
func (b *Broker) Dispatch(ctx context.Context, job runner.Job) (stats.Sim, bool, error) {
	off := b.offer(job)
	if off == nil {
		return stats.Sim{}, false, nil
	}
	claimTimer := time.NewTimer(b.offerWait)
	defer claimTimer.Stop()
	var l *lease
	select {
	case l = <-off.taken:
	case <-claimTimer.C:
		if l = b.withdraw(off); l == nil {
			if b.declined != nil {
				b.declined.Inc()
			}
			return stats.Sim{}, false, nil
		}
	case <-ctx.Done():
		if l = b.withdraw(off); l == nil {
			return stats.Sim{}, false, nil
		}
	}

	// Claimed: wait for the worker's outcome, re-arming an expiry timer
	// against the (renewable) lease deadline. When it fires or ctx ends,
	// the lease's state decides; an accepted report is the outcome.
	for {
		b.mu.Lock()
		expire := time.NewTimer(l.deadline.Sub(b.now()))
		b.mu.Unlock()
		abandon := false
		select {
		case out := <-l.result:
			expire.Stop()
			return b.accepted(out)
		case <-expire.C:
		case <-ctx.Done():
			expire.Stop()
			abandon = true
		}
		b.mu.Lock()
		state := b.expireLocked(l, b.now(), abandon)
		b.mu.Unlock()
		switch state {
		case leaseResolved:
			return b.accepted(<-l.result)
		case leaseExpired:
			if !abandon && b.expiries != nil {
				b.expiries.Inc()
			}
			return stats.Sim{}, false, nil
		}
		// Still live: renewed while the timer was in flight.
	}
}

// accepted counts and returns a worker's accepted attempt outcome.
func (b *Broker) accepted(out attemptOutcome) (stats.Sim, bool, error) {
	if b.remoteOK != nil {
		b.remoteOK.Inc()
	}
	return out.st, true, out.err
}

// offer queues job before the worker pool and wakes pollers; it
// returns nil when no worker has polled within the liveness window.
func (b *Broker) offer(job runner.Job) *offer {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.workersLocked(b.now()) == 0 {
		return nil
	}
	off := &offer{job: job, taken: make(chan *lease, 1)}
	b.offers = append(b.offers, off)
	close(b.notify)
	b.notify = make(chan struct{})
	return off
}

// withdraw pulls off from the offer queue. If a worker claimed it in
// the race window, withdraw returns the lease (the caller must wait it
// out); otherwise nil, and no worker can claim it any more.
func (b *Broker) withdraw(off *offer) *lease {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case l := <-off.taken:
		return l
	default:
	}
	for i, o := range b.offers {
		if o == off {
			b.offers = append(b.offers[:i], b.offers[i+1:]...)
			break
		}
	}
	return nil
}

// expireLocked is the one place a lease's deadline meets the clock: a
// live lease whose deadline is at or before now — or any live lease,
// when abandon says its Dispatch gave up — ends as expired. A resolved
// or expired lease is left as it is. It returns l's resulting state.
func (b *Broker) expireLocked(l *lease, now time.Time, abandon bool) leaseState {
	if l.state == leaseLive && (abandon || !now.Before(l.deadline)) {
		b.endLocked(l, leaseExpired, now)
	}
	return l.state
}

// endLocked ends live lease l; its record answers later reports.
func (b *Broker) endLocked(l *lease, state leaseState, now time.Time) {
	l.state, l.ended = state, now
	b.live--
	b.pruneLocked(now)
}

// maxDead bounds the dead leases kept; beyond it, those dead over ten
// TTLs are swept (a worker retrying that late has long given up).
const maxDead = 4096

func (b *Broker) pruneLocked(now time.Time) {
	if len(b.leases)-b.live <= maxDead {
		return
	}
	cutoff := now.Add(-10 * b.ttl)
	for id, l := range b.leases {
		if l.state != leaseLive && l.ended.Before(cutoff) {
			delete(b.leases, id)
		}
	}
}

// Lease long-polls for a job on behalf of worker `name`: it claims the
// oldest offer, or waits up to `wait` for one to arrive. ok=false
// means no work surfaced in the window — the worker polls again. Every
// call refreshes the worker's liveness, which is what makes the broker
// start offering jobs at all.
func (b *Broker) Lease(ctx context.Context, name string, wait time.Duration) (id string, job runner.Job, ttl time.Duration, ok bool) {
	deadline := b.now().Add(wait)
	for {
		b.mu.Lock()
		now := b.now()
		b.workers[name] = now
		if len(b.offers) > 0 {
			off := b.offers[0]
			b.offers = b.offers[1:]
			b.seq++
			l := &lease{
				id:       fmt.Sprintf("l-%d", b.seq),
				jobID:    off.job.ID,
				deadline: now.Add(b.ttl),
				result:   make(chan attemptOutcome, 1),
			}
			b.leases[l.id] = l
			b.live++
			// Hand the lease over while still holding the mutex: withdraw
			// drains taken under the same lock, so a claim and a
			// withdrawal can never miss each other (taken is buffered, so
			// this send cannot block).
			off.taken <- l
			b.mu.Unlock()
			return l.id, off.job, b.ttl, true
		}
		notify := b.notify
		b.mu.Unlock()

		remain := deadline.Sub(now)
		if remain <= 0 {
			return "", runner.Job{}, 0, false
		}
		t := time.NewTimer(remain)
		select {
		case <-notify:
			t.Stop()
		case <-t.C:
			return "", runner.Job{}, 0, false
		case <-ctx.Done():
			t.Stop()
			return "", runner.Job{}, 0, false
		}
	}
}

// Renew extends lease id's deadline by one TTL. ErrLeaseGone means the
// lease is not live (its deadline passed, timer fired or not): the
// worker should abandon the job — the daemon is re-running it.
func (b *Broker) Renew(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	l, ok := b.leases[id]
	if !ok || b.expireLocked(l, now, false) != leaseLive {
		return ErrLeaseGone
	}
	l.deadline = now.Add(b.ttl)
	return nil
}

// Resolve delivers lease id's attempt outcome for job jobID. A report
// on a live lease before its deadline is accepted and is the attempt's
// outcome, whatever the expiry timer does next. A redelivered report
// for the same (lease, job key) — a duplicated wire, or a retry after a
// lost ACK — returns nil without recording anything. ErrLeaseGone
// means the lease expired (timer fired or not), is unknown, or holds
// another job key: the local re-run owns the attempt.
func (b *Broker) Resolve(id, jobID string, st stats.Sim, attemptErr error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	l, ok := b.leases[id]
	if !ok || l.jobID != jobID {
		return ErrLeaseGone // misdirected; the lease itself lives on ErrLeaseGone
	}
	switch b.expireLocked(l, now, false) {
	case leaseLive:
		l.result <- attemptOutcome{st: st, err: attemptErr} // buffered; only the first report gets here
		b.endLocked(l, leaseResolved, now)
		return nil
	case leaseResolved:
		return nil // duplicate delivery of an accepted outcome
	}
	return ErrLeaseGone
}
