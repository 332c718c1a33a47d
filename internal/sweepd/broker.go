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
// sweep's own runner. A lease that expires (worker SIGKILL'd, network
// gone) resolves its Dispatch as declined — the same local fallback —
// and the dead lease is tombstoned so a late result for it is refused
// with ErrLeaseGone rather than double-recording the job: exactly one
// attempt outcome per Dispatch call, which is what keeps the sink free
// of duplicate records.
type Broker struct {
	ttl          time.Duration // lease lifetime between renewals
	offerWait    time.Duration // how long Dispatch dangles an unclaimed offer
	workerWindow time.Duration // how recently a worker must have polled to count as attached

	mu      sync.Mutex
	offers  []*offer
	notify  chan struct{} // closed and replaced when an offer arrives
	leases  map[string]*lease
	tombs   map[string]tombstone // dead leases, for idempotent redelivery
	workers map[string]time.Time // worker name → last poll
	seq     uint64

	leasesOut *obs.Gauge
	expiries  *obs.Counter
	remoteOK  *obs.Counter
	declined  *obs.Counter
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
	gone  bool        // withdrawn by Dispatch; skip on claim
}

// lease is one claimed attempt: the worker holds its ID and must
// renew within TTL until it reports the outcome.
type lease struct {
	id       string
	job      runner.Job
	deadline time.Time
	result   chan attemptOutcome // buffered 1
}

type attemptOutcome struct {
	st  stats.Sim
	err error
}

// tombstone remembers how a dead lease died, keyed by lease ID and
// carrying the job's content key. A resolved tombstone lets a
// redelivered report — the wire duplicated it, or the worker retried
// after a lost ACK — be answered as already-accepted instead of
// recorded twice; an expired tombstone refuses late results because
// the local re-run owns the attempt. Exactly one outcome per Dispatch
// either way.
type tombstone struct {
	jobID    string
	resolved bool // true: outcome accepted; false: expired/abandoned
	at       time.Time
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
		notify:       make(chan struct{}),
		leases:       map[string]*lease{},
		tombs:        map[string]tombstone{},
		workers:      map[string]time.Time{},
	}
	if r != nil {
		b.leasesOut = r.Gauge("sweepd_leases_outstanding", "job leases held by attached workers right now")
		b.expiries = r.Counter("sweepd_lease_expiries_total", "leases that expired without a result (job re-ran locally)")
		b.remoteOK = r.Counter("sweepd_remote_results_total", "attempt outcomes delivered by attached workers")
		b.declined = r.Counter("sweepd_offers_declined_total", "dispatch offers no worker claimed in time")
		r.GaugeFunc("sweepd_workers_attached", "worker processes seen polling within the liveness window",
			func() float64 { return float64(b.Workers()) })
	}
	return b
}

// Workers counts the worker processes seen polling within the liveness
// window.
func (b *Broker) Workers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.workersLocked()
}

func (b *Broker) workersLocked() int {
	cutoff := time.Now().Add(-b.workerWindow)
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
	b.mu.Lock()
	if b.workersLocked() == 0 {
		b.mu.Unlock()
		return stats.Sim{}, false, nil
	}
	off := &offer{job: job, taken: make(chan *lease, 1)}
	b.offers = append(b.offers, off)
	close(b.notify)
	b.notify = make(chan struct{})
	b.mu.Unlock()

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
	// against the (renewable) lease deadline.
	for {
		b.mu.Lock()
		deadline := l.deadline
		b.mu.Unlock()
		expire := time.NewTimer(time.Until(deadline))
		select {
		case out := <-l.result:
			expire.Stop()
			if b.remoteOK != nil {
				b.remoteOK.Inc()
			}
			return out.st, true, out.err
		case <-expire.C:
			b.mu.Lock()
			if time.Now().Before(l.deadline) {
				b.mu.Unlock()
				continue // renewed while the timer was in flight
			}
			b.buryLocked(l, false)
			b.mu.Unlock()
			if b.expiries != nil {
				b.expiries.Inc()
			}
			// Drain a result that raced the expiry: it lost; the local
			// re-run is the attempt of record.
			select {
			case <-l.result:
			default:
			}
			return stats.Sim{}, false, nil
		case <-ctx.Done():
			expire.Stop()
			b.mu.Lock()
			b.buryLocked(l, false)
			b.mu.Unlock()
			return stats.Sim{}, false, nil
		}
	}
}

// withdraw pulls off from the offer queue. If a worker claimed it in
// the race window, withdraw returns the lease (the caller must wait it
// out); otherwise the offer is marked gone and nil is returned.
func (b *Broker) withdraw(off *offer) *lease {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case l := <-off.taken:
		return l
	default:
	}
	off.gone = true
	for i, o := range b.offers {
		if o == off {
			b.offers = append(b.offers[:i], b.offers[i+1:]...)
			break
		}
	}
	return nil
}

// buryLocked removes a lease and tombstones it, recording whether its
// outcome was accepted (resolved) or discarded (expired/abandoned).
func (b *Broker) buryLocked(l *lease, resolved bool) {
	if _, ok := b.leases[l.id]; ok {
		delete(b.leases, l.id)
		if b.leasesOut != nil {
			b.leasesOut.Set(float64(len(b.leases)))
		}
	}
	b.tombs[l.id] = tombstone{jobID: l.job.ID, resolved: resolved, at: time.Now()}
	b.pruneTombsLocked()
}

// maxTombs bounds the tombstone map; beyond it, entries older than
// ten TTLs are swept (a worker retrying a report ten TTLs late has
// long since given up).
const maxTombs = 4096

func (b *Broker) pruneTombsLocked() {
	if len(b.tombs) <= maxTombs {
		return
	}
	cutoff := time.Now().Add(-10 * b.ttl)
	for id, t := range b.tombs {
		if t.at.Before(cutoff) {
			delete(b.tombs, id)
		}
	}
}

// Lease long-polls for a job on behalf of worker `name`: it claims the
// oldest live offer, or waits up to `wait` for one to arrive. ok=false
// means no work surfaced in the window — the worker polls again. Every
// call refreshes the worker's liveness, which is what makes the broker
// start offering jobs at all.
func (b *Broker) Lease(ctx context.Context, name string, wait time.Duration) (id string, job runner.Job, ttl time.Duration, ok bool) {
	deadline := time.Now().Add(wait)
	for {
		b.mu.Lock()
		b.workers[name] = time.Now()
		for len(b.offers) > 0 {
			off := b.offers[0]
			b.offers = b.offers[1:]
			if off.gone {
				continue
			}
			b.seq++
			l := &lease{
				id:       fmt.Sprintf("l-%d", b.seq),
				job:      off.job,
				deadline: time.Now().Add(b.ttl),
				result:   make(chan attemptOutcome, 1),
			}
			b.leases[l.id] = l
			if b.leasesOut != nil {
				b.leasesOut.Set(float64(len(b.leases)))
			}
			// Hand the lease over while still holding the mutex: withdraw
			// drains taken under the same lock, so a claim and a
			// withdrawal can never miss each other (taken is buffered, so
			// this send cannot block).
			off.taken <- l
			b.mu.Unlock()
			return l.id, l.job, b.ttl, true
		}
		notify := b.notify
		b.mu.Unlock()

		remain := time.Until(deadline)
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
// lease expired (or never existed): the worker should abandon the job
// — the daemon is already re-running it.
func (b *Broker) Renew(id string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	l, ok := b.leases[id]
	if !ok {
		return ErrLeaseGone
	}
	l.deadline = time.Now().Add(b.ttl)
	return nil
}

// Resolve delivers lease id's attempt outcome for job jobID. Exactly-once
// under redelivery: the first accepted outcome tombstones the lease,
// and a redelivered report for the same (lease, job key) — the wire
// duplicated it, or the worker retried after a lost ACK — returns nil
// without recording anything, so the worker sees the same success it
// missed. ErrLeaseGone means the broker already gave up on this lease
// (or the job key doesn't match it); the result is discarded and must
// not be recorded anywhere — the local re-run owns the attempt.
func (b *Broker) Resolve(id, jobID string, st stats.Sim, attemptErr error) error {
	b.mu.Lock()
	l, ok := b.leases[id]
	if ok && l.job.ID != jobID {
		// A report for a job this lease never held: refuse it rather
		// than record a result under the wrong key.
		b.mu.Unlock()
		return ErrLeaseGone
	}
	if ok {
		b.buryLocked(l, true)
	}
	tomb, dead := b.tombs[id]
	b.mu.Unlock()
	if !ok {
		if dead && tomb.resolved && jobID == tomb.jobID {
			return nil // duplicate delivery of an accepted outcome
		}
		return ErrLeaseGone
	}
	l.result <- attemptOutcome{st: st, err: attemptErr}
	return nil
}
