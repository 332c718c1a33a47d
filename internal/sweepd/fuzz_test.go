package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"banshee/internal/runner"
	"banshee/internal/stats"
)

// decodeSpec decodes a request body the way handleSubmit does.
func decodeSpec(data []byte) (Spec, error) {
	var spec Spec
	err := json.NewDecoder(io.LimitReader(bytes.NewReader(data), 64<<20)).Decode(&spec)
	return spec, err
}

// FuzzSpecResolve fuzzes the sweep spec a client submits over the
// network: decoding and Resolve must never panic, and a spec that
// resolves must give jobs at distinct coordinates, each carrying its
// config's content key, and must describe the same sweep (SweepID and
// base seed) after a JSON round trip of its own encoding.
func FuzzSpecResolve(f *testing.F) {
	axes, err := json.Marshal(testSpec("fz-axes"))
	if err != nil {
		f.Fatal(err)
	}
	wrapped, err := SpecFromMatrix(runner.Matrix{Name: "fz-wrapped", Base: testBase(),
		Workloads: []string{"mcf"}, Schemes: []string{"NoCache", "Banshee"}}, RunOptions{})
	if err != nil {
		f.Fatal(err)
	}
	wrappedJSON, err := json.Marshal(wrapped)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(axes)
	f.Add(wrappedJSON)
	f.Add([]byte(`{"name":"fz-points","workloads":["pagerank"],"schemes":["Alloy 1","TDC"],` +
		`"points":[{"label":"base"},{"label":"lat","set":{"InPkgLatScale":0.5,"Scheme":{"AlloyFrac":0.1}}}]}`))
	f.Add([]byte(`{"name":"fz-seeds","workloads":["pagerank"],"schemes":["NoCache"],"seeds":[1,1]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil {
			return
		}
		// Keep the axes' cross product small enough to enumerate fast.
		n := max(len(spec.Points), 1) * len(spec.Workloads) * len(spec.Schemes) * max(len(spec.Seeds), 1)
		if len(spec.Points) > 256 || len(spec.Workloads) > 256 || len(spec.Schemes) > 256 || len(spec.Seeds) > 256 || n > 256 {
			return
		}
		jobs, err := spec.Resolve()
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[j.Coord()] {
				t.Fatalf("two jobs at coordinate %s", j.Coord())
			}
			seen[j.Coord()] = true
			if want := runner.JobKey(j.Config); j.ID != want {
				t.Fatalf("job %s has ID %s, its config hashes to %s", j.Coord(), j.ID, want)
			}
		}

		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("resolved spec not encodable: %v", err)
		}
		again, err := decodeSpec(b)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v", err)
		}
		jobs2, err := again.Resolve()
		if err != nil {
			t.Fatalf("re-encoded spec does not resolve: %v", err)
		}
		if SweepID(spec.Name, jobs2) != SweepID(spec.Name, jobs) || again.BaseSeed() != spec.BaseSeed() {
			t.Fatalf("re-encoded spec is a different sweep: ID %s / seed %d, want %s / %d",
				SweepID(spec.Name, jobs2), again.BaseSeed(), SweepID(spec.Name, jobs), spec.BaseSeed())
		}
	})
}

// Operations FuzzLeaseProtocol applies, one per pair of input bytes
// (operation, argument).
const (
	opOffer     = iota // Dispatch queues a job
	opClaim            // a worker's Lease with wait 0
	opRenew            // renew a claimed lease
	opResolve          // report with the right job key
	opWrongKey         // report under another job key
	opDuplicate        // redeliver a report to a resolved lease
	opAdvance          // the clock moves on by arg ms
	opTick             // Dispatch's expiry timer fires (arg ≥ 128: its ctx ended)
	opWithdraw         // Dispatch's offer window closes
	numOps
)

// fuzzJob is one Dispatch call as the reference model sees it.
type fuzzJob struct {
	id       string // job content key
	off      *offer
	lease    *lease     // the claimed lease, once a worker takes the offer
	held     bool       // Dispatch holds the lease (received it from off.taken)
	state    leaseState // the reference state of the lease
	deadline time.Time  // the reference deadline of a live lease
	done     bool       // Dispatch returned
	outcomes int        // accepted outcomes the lease delivered
	local    int        // times the job went back for a local run
}

// FuzzLeaseProtocol drives the broker's lease state machine through
// its clock seam, with no goroutines and no sleeps, and compares every
// operation with a reference model of each lease's state and deadline.
// After every operation each lease's result channel is drained, so a
// second outcome is counted rather than blocking, and these hold:
//   - a job's outcome is accepted at most once;
//   - a report on an expired lease, or at or past its deadline, is
//     refused;
//   - a redelivered accepted report succeeds without a second outcome;
//   - a lease renewed before its deadline does not expire;
//   - a job whose offer or lease went unanswered goes back for a local
//     run exactly once, and never after an outcome was accepted.
func FuzzLeaseProtocol(f *testing.F) {
	// The two race orders at a 100 ms TTL: a report 1 ms before the
	// deadline, then the expiry tick; and the tick at the deadline,
	// then the report. Then a report and a renewal at the deadline
	// before the tick has fired.
	f.Add([]byte{opOffer, 0, opClaim, 0, opAdvance, 99, opResolve, 0, opAdvance, 1, opTick, 0, opDuplicate, 0})
	f.Add([]byte{opOffer, 0, opClaim, 0, opAdvance, 100, opTick, 0, opResolve, 0, opRenew, 0})
	f.Add([]byte{opOffer, 0, opClaim, 0, opAdvance, 100, opResolve, 0, opRenew, 0, opTick, 0})
	f.Add([]byte{opOffer, 0, opOffer, 0, opClaim, 0, opAdvance, 60, opRenew, 0, opAdvance, 60, opTick, 0,
		opWithdraw, 0, opWrongKey, 0, opResolve, 0, opTick, 200})

	const ttl = 100 * time.Millisecond
	f.Fuzz(func(t *testing.T, data []byte) {
		// At most 256 operations of at most 127 ms keep the clock within
		// the worker's 90 s liveness window of its first poll.
		data = data[:min(len(data), 512)&^1]
		clock := time.Unix(1_000_000, 0)
		b := NewBroker(ttl, nil)
		b.now = func() time.Time { return clock }
		b.Lease(context.Background(), "w", 0) // attach the worker
		var jobs []*fuzzJob
		var pending []*fuzzJob // unclaimed offers, oldest first
		pick := func(arg byte, ok func(*fuzzJob) bool) *fuzzJob {
			var c []*fuzzJob
			for _, j := range jobs {
				if ok(j) {
					c = append(c, j)
				}
			}
			if len(c) == 0 {
				return nil
			}
			return c[int(arg)%len(c)]
		}
		claimed := func(j *fuzzJob) bool { return j.lease != nil }
		// expire applies the deadline rule to the reference model.
		expire := func(j *fuzzJob, abandon bool) {
			if j.state == leaseLive && (abandon || !clock.Before(j.deadline)) {
				j.state = leaseExpired
			}
		}
		report := func(j *fuzzJob, what string) {
			err := b.Resolve(j.lease.id, j.id, stats.Sim{Cycles: 1}, nil)
			expire(j, false)
			switch {
			case j.state == leaseLive && err == nil:
				j.state = leaseResolved
			case j.state == leaseResolved && err == nil, j.state == leaseExpired && err == ErrLeaseGone:
			default:
				t.Fatalf("%s on %s (reference %d, deadline %v, now %v): %v",
					what, j.lease.id, j.state, j.deadline, clock, err)
			}
		}

		for i := 0; i < len(data); i += 2 {
			op, arg := data[i]%numOps, data[i+1]
			switch op {
			case opOffer:
				j := &fuzzJob{id: fmt.Sprintf("job-%d", len(jobs))}
				if j.off = b.offer(runner.Job{ID: j.id}); j.off == nil {
					t.Fatalf("offer %s declined with a worker attached", j.id)
				}
				jobs = append(jobs, j)
				pending = append(pending, j)
			case opClaim:
				id, job, _, ok := b.Lease(context.Background(), "w", 0)
				if ok != (len(pending) > 0) {
					t.Fatalf("claim = %v with %d offers pending", ok, len(pending))
				}
				if !ok {
					break
				}
				j := pending[0]
				pending = pending[1:]
				if job.ID != j.id {
					t.Fatalf("claimed %s, want the oldest offer %s", job.ID, j.id)
				}
				b.mu.Lock()
				j.lease = b.leases[id]
				b.mu.Unlock()
				if j.lease == nil || len(j.off.taken) != 1 {
					t.Fatalf("claim of %s did not hand lease %s to its offer", j.id, id)
				}
				j.state, j.deadline = leaseLive, clock.Add(ttl)
			case opRenew:
				if j := pick(arg, claimed); j != nil {
					err := b.Renew(j.lease.id)
					expire(j, false)
					switch {
					case j.state == leaseLive && err == nil:
						j.deadline = clock.Add(ttl)
					case j.state != leaseLive && err == ErrLeaseGone:
					default:
						t.Fatalf("renew %s (reference %d, deadline %v, now %v): %v",
							j.lease.id, j.state, j.deadline, clock, err)
					}
				}
			case opResolve:
				if j := pick(arg, claimed); j != nil {
					report(j, "report")
				}
			case opWrongKey:
				if j := pick(arg, claimed); j != nil {
					if err := b.Resolve(j.lease.id, j.id+"-other", stats.Sim{}, nil); err != ErrLeaseGone {
						t.Fatalf("report to %s under another job key: %v", j.lease.id, err)
					}
				}
			case opDuplicate:
				if j := pick(arg, func(j *fuzzJob) bool { return claimed(j) && j.state == leaseResolved }); j != nil {
					report(j, "redelivered report")
				}
			case opAdvance:
				clock = clock.Add(time.Duration(arg%128) * time.Millisecond)
			case opTick:
				j := pick(arg, func(j *fuzzJob) bool { return claimed(j) && !j.done })
				if j == nil {
					break
				}
				if !j.held {
					<-j.off.taken // Dispatch's claim branch
					j.held = true
				}
				abandon := arg >= 128
				b.mu.Lock()
				state := b.expireLocked(j.lease, clock, abandon)
				b.mu.Unlock()
				expire(j, abandon)
				if state != j.state {
					t.Fatalf("tick on %s = state %d, reference %d", j.lease.id, state, j.state)
				}
				switch state {
				case leaseResolved:
					j.done = true // Dispatch returns the accepted outcome
				case leaseExpired:
					j.done = true
					j.local++
				}
			case opWithdraw:
				j := pick(arg, func(j *fuzzJob) bool { return !j.held && !j.done })
				if j == nil {
					break
				}
				l := b.withdraw(j.off)
				if l != j.lease {
					t.Fatalf("withdraw of %s returned lease %v, want %v", j.id, l, j.lease)
				}
				if l != nil {
					j.held = true
					break
				}
				j.done = true
				j.local++
				for k, p := range pending {
					if p == j {
						pending = append(pending[:k], pending[k+1:]...)
						break
					}
				}
			}

			live := 0
			for _, j := range jobs {
				if j.lease == nil {
					continue
				}
				select {
				case <-j.lease.result:
					j.outcomes++
				default:
				}
				if j.state == leaseLive {
					live++
				}
				if (j.outcomes == 1) != (j.state == leaseResolved) || j.outcomes > 1 {
					t.Fatalf("%s delivered %d outcomes in reference state %d", j.lease.id, j.outcomes, j.state)
				}
				b.mu.Lock()
				state := j.lease.state
				b.mu.Unlock()
				if state != j.state {
					t.Fatalf("%s is in state %d, reference %d", j.lease.id, state, j.state)
				}
			}
			for _, j := range jobs {
				if n := j.local + j.outcomes; n > 1 || j.done && n != 1 {
					t.Fatalf("%s (done %v) ran locally %d times, with %d accepted outcomes", j.id, j.done, j.local, j.outcomes)
				}
			}
			b.mu.Lock()
			bl := b.live
			b.mu.Unlock()
			if bl != live {
				t.Fatalf("broker counts %d live leases, reference %d", bl, live)
			}
		}
	})
}
