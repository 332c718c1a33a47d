package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"banshee/internal/runner"
	"banshee/internal/util"
)

// Client talks to a sweepd daemon over HTTP/JSON. Every unary call
// carries a per-call deadline and rides a bounded retry policy with
// deterministic jitter; mutating calls are idempotent on the daemon
// side (Submit is content-keyed, lease reports are deduped by
// (lease, job key)), so a retry after a lost ACK is always safe.
// Result streams are long-lived and resume by byte offset instead.
type Client struct {
	base        string
	hc          *http.Client
	retry       runner.RetryPolicy
	callTimeout time.Duration
}

// ClientOptions tunes the transport a Client is built with. The zero
// value means the hardened defaults — there is deliberately no way
// back to the unbounded zero-valued http.Client.
type ClientOptions struct {
	// DialTimeout bounds TCP connection establishment (default 5s).
	DialTimeout time.Duration
	// TLSHandshakeTimeout bounds the TLS handshake (default 5s).
	TLSHandshakeTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for response headers. It
	// must exceed the worker lease long-poll window (the daemon holds
	// the request headerless while waiting for work), so the default
	// is 40s against the server-side 30s cap.
	ResponseHeaderTimeout time.Duration
	// CallTimeout is the per-attempt deadline on unary calls (default
	// 15s). Streams are exempt: they are bounded by the caller's ctx
	// and resume by offset.
	CallTimeout time.Duration
	// Retry bounds per-call retries; backoff is exponential with
	// deterministic jitter (runner.RetryPolicy semantics). The zero
	// value means 4 attempts, 50ms base, 2s cap.
	Retry runner.RetryPolicy
	// Transport, when non-nil, replaces the default transport —
	// the seam chaos tests use to inject network faults.
	Transport http.RoundTripper
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.TLSHandshakeTimeout <= 0 {
		o.TLSHandshakeTimeout = 5 * time.Second
	}
	if o.ResponseHeaderTimeout <= 0 {
		o.ResponseHeaderTimeout = maxLeaseWait + 10*time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 15 * time.Second
	}
	if o.Retry.MaxAttempts <= 0 {
		o.Retry = runner.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
	}
	return o
}

// Dial returns a client for the daemon at addr ("host:port" or a full
// http:// URL) with the default timeouts and retry policy. No
// connection is made until the first call.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, ClientOptions{})
}

// DialWith is Dial with explicit transport and retry tuning.
func DialWith(addr string, o ClientOptions) (*Client, error) {
	if addr == "" {
		return nil, fmt.Errorf("sweepd: empty daemon address")
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	addr = strings.TrimRight(addr, "/")
	o = o.withDefaults()
	rt := o.Transport
	if rt == nil {
		rt = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: o.DialTimeout}).DialContext,
			TLSHandshakeTimeout:   o.TLSHandshakeTimeout,
			ResponseHeaderTimeout: o.ResponseHeaderTimeout,
			MaxIdleConnsPerHost:   8,
		}
	}
	return &Client{
		base:        addr,
		hc:          &http.Client{Transport: rt},
		retry:       o.Retry,
		callTimeout: o.CallTimeout,
	}, nil
}

// Base returns the daemon URL this client targets.
func (c *Client) Base() string { return c.base }

// do issues one unary JSON call under the retry policy and the
// default per-attempt deadline.
func (c *Client) do(ctx context.Context, call, method, path string, in, out interface{}) error {
	return c.doCall(ctx, call, c.callTimeout, method, path, in, out)
}

// doCall issues a unary JSON call: per-attempt deadline, bounded
// retries with deterministic jitter, Retry-After honored on 429/503.
// out may be nil. Non-2xx responses surface as *APIError. The call
// name keys both the retry telemetry and the backoff jitter.
func (c *Client) doCall(ctx context.Context, call string, timeout time.Duration, method, path string, in, out interface{}) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("sweepd: encode request: %w", err)
		}
		payload = b
	}
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, timeout, method, path, payload, out)
		if err == nil || !c.backoff(ctx, call, path, attempt, err) {
			return err
		}
	}
}

// backoff decides whether failed attempt number attempt of call is
// retried and, if so, counts the retry and sleeps the policy's delay
// for it (jitter keyed by call and key), or the daemon's Retry-After
// when that is longer. It reports false when the caller should give
// up with err: the context is done, the attempts are spent, err is
// not transient, or ctx ended the sleep.
func (c *Client) backoff(ctx context.Context, call, key string, attempt int, err error) bool {
	if ctx.Err() != nil || attempt >= c.retry.Attempts() || !retryable(err) {
		return false
	}
	recordRetry(call)
	d := c.retry.Delay(call+"|"+key, attempt)
	if ra := retryAfter(err); ra > d {
		d = ra
	}
	return util.SleepCtx(ctx, d)
}

// doOnce is one attempt of a unary call.
func (c *Client) doOnce(ctx context.Context, timeout time.Duration, method, path string, payload []byte, out interface{}) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("sweepd: decode response: %w", err)
	}
	return nil
}

// retryable classifies an error as transient. Transport failures,
// torn responses, 5xx, and 429 retry; other 4xx are the daemon
// meaning it, and context errors are the caller meaning it.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500 || ae.Status == http.StatusTooManyRequests
	}
	return true
}

// retryAfter extracts a daemon-directed backoff (429/503 Retry-After)
// from err, or 0.
func retryAfter(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the daemon's requested backoff (429/503 responses
	// under load shed), zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("sweepd: daemon returned %d: %s", e.Status, e.Message)
}

// IsOverloaded reports whether err is the daemon shedding load (429):
// back off and retry later.
func IsOverloaded(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
}

func decodeAPIError(resp *http.Response) error {
	var ae apiError
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if json.Unmarshal(b, &ae) != nil || ae.Error == "" {
		ae.Error = strings.TrimSpace(string(b))
	}
	out := &APIError{Status: resp.StatusCode, Message: ae.Error}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			out.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return out
}

// Submit sends a sweep spec and returns its status. Idempotent: the
// same spec always resolves to the same sweep.
func (c *Client) Submit(ctx context.Context, spec Spec) (Status, error) {
	var st Status
	err := c.do(ctx, callSubmit, http.MethodPost, "/v1/sweeps", spec, &st)
	return st, err
}

// SubmitMatrix submits a locally declared Matrix, after checking that
// it enumerates.
func (c *Client) SubmitMatrix(ctx context.Context, m runner.Matrix, o RunOptions) (Status, error) {
	spec, err := SpecFromMatrix(m, o)
	if err != nil {
		return Status{}, err
	}
	return c.Submit(ctx, spec)
}

// Status fetches one sweep's status.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, callStatus, http.MethodGet, "/v1/sweeps/"+id+"/status", nil, &st)
	return st, err
}

// List fetches every sweep the daemon knows.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var sts []Status
	err := c.do(ctx, callList, http.MethodGet, "/v1/sweeps", nil, &sts)
	return sts, err
}

// Cancel stops a live sweep, returning its terminal status.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	err := c.do(ctx, callCancel, http.MethodPost, "/v1/sweeps/"+id+"/cancel", nil, &st)
	return st, err
}

// Wait polls until the sweep reaches a terminal state (or ctx ends).
// A failed poll — daemon restarting, network partitioned — does not
// abort the wait: each poll already rides the retry policy, and Wait
// keeps polling through persistent failures until the deadline,
// failing only on a permanent answer (e.g. 404: the sweep does not
// exist).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	var last Status
	var lastErr error
	for {
		st, err := c.Status(ctx, id)
		switch {
		case err == nil:
			last, lastErr = st, nil
			if st.Terminal() {
				return st, nil
			}
		case !retryable(err) && ctx.Err() == nil:
			return last, err
		default:
			lastErr = err
		}
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return last, fmt.Errorf("%w (last poll error: %v)", ctx.Err(), lastErr)
			}
			return last, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// stream copies one sweep stream into w starting at byte offset,
// returning the bytes written. With follow, the copy lasts until the
// sweep is terminal and drained. A connection torn mid-copy resumes
// transparently: the next attempt asks for offset advanced by the
// bytes already delivered, so the caller's byte sequence stays exact;
// progress resets the retry budget, so only a connection that fails
// repeatedly without delivering anything gives up.
func (c *Client) stream(ctx context.Context, id, kind string, offset int64, follow bool, w io.Writer) (int64, error) {
	var total int64
	attempt := 0
	for {
		n, err := c.streamOnce(ctx, id, kind, offset+total, follow, w)
		total += n
		if err == nil {
			return total, nil
		}
		if n > 0 {
			attempt = 0
		}
		attempt++
		if !c.backoff(ctx, callStream, id+"/"+kind, attempt, err) {
			return total, err
		}
	}
}

// streamOnce is one connection's worth of stream bytes.
func (c *Client) streamOnce(ctx context.Context, id, kind string, offset int64, follow bool, w io.Writer) (int64, error) {
	url := fmt.Sprintf("%s/v1/sweeps/%s/%s?offset=%d", c.base, id, kind, offset)
	if !follow {
		url += "&follow=0"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeAPIError(resp)
	}
	return io.Copy(w, resp.Body)
}

// StreamResults streams the sweep's checkpoint JSONL into w from byte
// offset until the sweep completes (follow mode). The bytes are
// exactly the daemon's results file: CRC-checksummed records in
// enumeration order, byte-identical to a local run of the same spec.
func (c *Client) StreamResults(ctx context.Context, id string, offset int64, w io.Writer) (int64, error) {
	return c.stream(ctx, id, "results", offset, true, w)
}

// StreamEpochs streams the sweep's epoch-series JSONL into w from byte
// offset until the sweep completes.
func (c *Client) StreamEpochs(ctx context.Context, id string, offset int64, w io.Writer) (int64, error) {
	return c.stream(ctx, id, "epochs", offset, true, w)
}

// FetchResults returns the bytes of the results stream currently on
// disk (no follow).
func (c *Client) FetchResults(ctx context.Context, id string, offset int64, w io.Writer) (int64, error) {
	return c.stream(ctx, id, "results", offset, false, w)
}

// Results streams the completed sweep's checkpoint to the end and
// parses it. Call after Wait (or let follow mode do the waiting).
func (c *Client) Results(ctx context.Context, id string) ([]runner.Record, error) {
	var buf bytes.Buffer
	if _, err := c.stream(ctx, id, "results", 0, true, &buf); err != nil {
		return nil, err
	}
	return runner.ParseRecords(buf.Bytes())
}

// Ledger fetches and parses the sweep's failure ledger (empty when
// every job succeeded).
func (c *Client) Ledger(ctx context.Context, id string) ([]runner.Record, error) {
	var buf bytes.Buffer
	if _, err := c.stream(ctx, id, "ledger", 0, false, &buf); err != nil {
		return nil, err
	}
	return runner.ParseRecords(buf.Bytes())
}

// RunMatrix is the remote counterpart of Engine.Run: submit the
// matrix, wait for the sweep to finish, and assemble the streamed
// records into the ResultSet the aggregators consume. A failed sweep
// returns an error carrying the daemon's abort reason; a sweep with
// KeepGoing failures returns normally with the failures indexed.
func (c *Client) RunMatrix(ctx context.Context, m runner.Matrix, o RunOptions) (*runner.ResultSet, error) {
	spec, err := SpecFromMatrix(m, o)
	if err != nil {
		return nil, err
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	recs, err := c.Results(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	switch final.State {
	case StateDone:
	case StateFailed:
		return nil, fmt.Errorf("sweepd: sweep %s failed: %s", st.ID, final.Error)
	default:
		return nil, fmt.Errorf("sweepd: sweep %s ended %s", st.ID, final.State)
	}
	var failed []runner.Record
	if final.Failed > 0 {
		if failed, err = c.Ledger(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	return runner.AssembleResultSet(m.Name, m.BaseSeed(), recs, failed), nil
}
