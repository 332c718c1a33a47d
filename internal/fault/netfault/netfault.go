// Package netfault extends the fault subsystem across the process
// boundary: deterministic network-fault injection for the sweepd
// HTTP protocol. Where internal/fault proves the engine's supervision
// against in-process panics, errors, and torn writes, netfault proves
// the client/worker/daemon protocol against the failures a real
// network delivers — lost requests, lost and truncated responses,
// latency spikes, spurious 5xx, and duplicated delivery.
//
// Two injection points cover the two test tiers:
//
//   - Transport: an http.RoundTripper wrapper for in-process tests.
//     Every fault decision hashes (plan seed, method, path, attempt),
//     so a chaos run's decision function is exactly reproducible; the
//     attempt counter makes retried calls roll fresh, which is what
//     lets a bounded retry policy converge at single-digit fault
//     rates.
//   - Proxy: an in-process chaos TCP proxy for subprocess e2e tests —
//     it sits between a real worker process and a real daemon,
//     deterministically cutting connections mid-stream, stalling
//     bytes, and opening partition windows during which every
//     connection (new and established) dies.
//
// Faults injected here are indistinguishable from organic network
// trouble to the code under test — that is the point. The audit trail
// lives in the process-wide tallies (InjectedCount, and the
// banshee_net_faults_injected_total series on obs.Process), so a
// converged chaos run can prove faults actually fired.
package netfault

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"banshee/internal/fault"
	"banshee/internal/util"
)

// ErrInjected aliases the fault package's sentinel: every injected
// transport error wraps it, so tests and retry loops can tell
// synthetic network trouble from organic failures with errors.Is.
var ErrInjected = fault.ErrInjected

// Mode is the network fault a (method, path, attempt) key draws.
type Mode int

// Network fault modes, in decision-precedence order.
const (
	None      Mode = iota
	DropReq        // request lost before reaching the server
	DropResp       // request delivered and processed; response lost
	Truncate       // response cut mid-body (client sees a torn stream)
	Latency        // Plan.Latency added before the request proceeds
	Err5xx         // synthetic 503 without reaching the server
	Duplicate      // request delivered twice (server must dedupe)
	nModes
)

func (m Mode) String() string {
	switch m {
	case None:
		return "none"
	case DropReq:
		return "drop_req"
	case DropResp:
		return "drop_resp"
	case Truncate:
		return "truncate"
	case Latency:
		return "latency"
	case Err5xx:
		return "err_5xx"
	case Duplicate:
		return "duplicate"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Plan configures a Transport: what fraction of calls draw each fault
// mode. Rates are cumulative-exclusive in declaration order (a call
// draws at most one mode), exactly like fault.Plan.
type Plan struct {
	// Seed perturbs every decision hash; two plans with different
	// seeds pick different victim calls at the same rates.
	Seed uint64
	// Per-mode rates in [0,1]; see the Mode constants.
	DropReqRate, DropRespRate, TruncateRate float64
	LatencyRate, Err5xxRate, DuplicateRate  float64
	// Latency is how long a Latency-mode fault delays (default 2ms).
	Latency time.Duration
}

// Rate returns the plan's total fault rate (the fraction of calls
// that draw any mode).
func (p Plan) Rate() float64 {
	return p.DropReqRate + p.DropRespRate + p.TruncateRate +
		p.LatencyRate + p.Err5xxRate + p.DuplicateRate
}

func (p Plan) latency() time.Duration {
	if p.Latency <= 0 {
		return 2 * time.Millisecond
	}
	return p.Latency
}

// Transport is a deterministic faulty http.RoundTripper. Fault
// decisions hash (plan seed, method, path, attempt): the attempt
// counter advances per (method, path) call, so a retry of a faulted
// call rolls a fresh decision — at single-digit rates the retry
// almost always passes, which is what lets a bounded retry policy
// drive a chaos run to convergence. Safe for concurrent use.
type Transport struct {
	inner http.RoundTripper
	plan  Plan

	mu       sync.Mutex
	attempts map[string]uint64
}

// NewTransport wraps inner (nil = http.DefaultTransport) with the
// plan's fault injection.
func NewTransport(plan Plan, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inner: inner, plan: plan, attempts: map[string]uint64{}}
}

// Plan returns the transport's plan.
func (t *Transport) Plan() Plan { return t.plan }

// ModeFor returns the mode call attempt n of (method, path) draws —
// the pure decision function, exposed so tests can predict and audit
// injections.
func (t *Transport) ModeFor(method, path string, attempt uint64) Mode {
	// util.HashUnit mixes the trailing attempt counter into every bit:
	// without that, every retry would re-draw the same fault and a
	// faulted call would stay faulted forever.
	r := util.HashUnit(fmt.Sprintf("%d|%s|%s|%d", t.plan.Seed, method, path, attempt))
	p := t.plan
	for _, m := range []struct {
		rate float64
		mode Mode
	}{
		{p.DropReqRate, DropReq}, {p.DropRespRate, DropResp},
		{p.TruncateRate, Truncate}, {p.LatencyRate, Latency},
		{p.Err5xxRate, Err5xx}, {p.DuplicateRate, Duplicate},
	} {
		if r < m.rate {
			return m.mode
		}
		r -= m.rate
	}
	return None
}

// nextAttempt advances and returns the call counter for (method, path).
func (t *Transport) nextAttempt(method, path string) uint64 {
	key := method + " " + path
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts[key]++
	return t.attempts[key]
}

// RoundTrip implements http.RoundTripper with fault injection. A
// DropReq or Err5xx fault never reaches the server; DropResp and
// Duplicate faults deliver the request (once or twice) so the server
// observes it — those are the modes that force idempotent-redelivery
// handling on the service side.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	attempt := t.nextAttempt(req.Method, req.URL.Path)
	mode := t.ModeFor(req.Method, req.URL.Path, attempt)
	if mode == Duplicate && req.Body != nil && req.GetBody == nil {
		mode = None // body not replayable; cannot duplicate safely
	}
	switch mode {
	case None:
		return t.inner.RoundTrip(req)
	case DropReq:
		record(DropReq)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("netfault: %s %s: request dropped: %w", req.Method, req.URL.Path, ErrInjected)
	case DropResp:
		record(DropResp)
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The server processed the request; lose the response so the
		// caller must retry a call that already took effect.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("netfault: %s %s: response dropped: %w", req.Method, req.URL.Path, ErrInjected)
	case Truncate:
		record(Truncate)
		resp, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remain: truncateAt(resp.ContentLength)}
		return resp, nil
	case Latency:
		record(Latency)
		timer := time.NewTimer(t.plan.latency())
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
		return t.inner.RoundTrip(req)
	case Err5xx:
		record(Err5xx)
		if req.Body != nil {
			req.Body.Close()
		}
		body := fmt.Sprintf(`{"error":"netfault: injected 503 (%s %s)"}`, req.Method, req.URL.Path)
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": {"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case Duplicate:
		record(Duplicate)
		first, err := t.inner.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, first.Body)
		first.Body.Close()
		// Redeliver: the server has already processed the call once;
		// only its dedupe/idempotency keeps the second delivery from
		// double-counting. The caller sees the second response.
		again := req.Clone(req.Context())
		if req.GetBody != nil {
			body, gerr := req.GetBody()
			if gerr != nil {
				return nil, gerr
			}
			again.Body = body
		}
		return t.inner.RoundTrip(again)
	}
	return t.inner.RoundTrip(req)
}

// truncateAt picks how many body bytes survive a Truncate fault:
// half the declared length, or a fixed prefix when the length is
// unknown (chunked streams).
func truncateAt(contentLength int64) int64 {
	if contentLength > 1 {
		return contentLength / 2
	}
	return 64
}

// truncatedBody yields the first remain bytes, then fails the read —
// a torn response stream, as a half-closed connection produces.
type truncatedBody struct {
	inner  io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, fmt.Errorf("netfault: response truncated: %w", ErrInjected)
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= int64(n)
	if err == io.EOF {
		return n, err
	}
	if b.remain <= 0 && err == nil {
		err = fmt.Errorf("netfault: response truncated: %w", ErrInjected)
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
