package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"banshee/internal/obs"
	"banshee/internal/runner"
	"banshee/internal/stats"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/sweeps                  submit a Spec; returns Status (idempotent)
//	GET  /v1/sweeps                  list sweeps
//	GET  /v1/sweeps/{id}/status      one sweep's Status
//	GET  /v1/sweeps/{id}/results     checkpoint JSONL stream (?offset=N bytes, ?follow=0)
//	GET  /v1/sweeps/{id}/epochs      epoch-series JSONL stream (same params)
//	GET  /v1/sweeps/{id}/ledger      failure-ledger JSONL stream (same params)
//	POST /v1/sweeps/{id}/cancel      stop a live sweep; returns terminal Status
//	POST /v1/workers/lease           long-poll a job lease (worker protocol)
//	POST /v1/workers/renew           extend a lease
//	POST /v1/workers/result          deliver a lease's attempt outcome
//	GET  /metrics                    Prometheus exposition (plus /debug/vars, pprof)
//
// Streams default to follow mode: bytes are sent as the sweep writes
// them and the response ends when the sweep reaches a terminal state.
// ?offset resumes a broken stream at a byte position; ?follow=0 returns
// just the bytes currently on disk.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", d.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", d.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}/status", d.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", d.streamHandler(d.store.ResultsPath))
	mux.HandleFunc("GET /v1/sweeps/{id}/epochs", d.streamHandler(d.store.EpochsPath))
	mux.HandleFunc("GET /v1/sweeps/{id}/ledger", d.streamHandler(d.store.LedgerPath))
	mux.HandleFunc("POST /v1/sweeps/{id}/cancel", d.handleCancel)
	mux.HandleFunc("POST /v1/workers/lease", d.handleLease)
	mux.HandleFunc("POST /v1/workers/renew", d.handleRenew)
	mux.HandleFunc("POST /v1/workers/result", d.handleResult)
	obs.HandleMetrics(mux, d.reg)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "banshee sweepd: POST /v1/sweeps, GET /v1/sweeps/{id}/{status,results,epochs,ledger}, GET /metrics")
	})
	return mux
}

// apiError is the JSON error body every non-2xx API response carries.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	var oe *OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := int((oe.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// errorCode maps daemon errors to HTTP statuses.
func errorCode(err error) int {
	var oe *OverloadError
	var se specError
	switch {
	case errors.As(err, &oe):
		return http.StatusTooManyRequests
	case errors.Is(err, errNoSweep):
		return http.StatusNotFound
	case errors.Is(err, errClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &se):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// clientHost extracts the per-client key stream limits bucket by.
func clientHost(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: bad spec: %w", err))
		return
	}
	st, err := d.Submit(spec)
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	code := http.StatusAccepted
	if st.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	sts, err := d.List()
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	if sts == nil {
		sts = []Status{}
	}
	writeJSON(w, http.StatusOK, sts)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := d.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := d.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, errorCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// streamHandler serves one of a sweep's JSONL files as a resumable
// stream. In follow mode (the default) it tails the file — flushing
// each new chunk to the client — until the sweep reaches a terminal
// state and the file is fully drained; every byte is sent exactly once
// per connection, so a client that reconnects passes the byte count it
// already holds as ?offset and the stream picks up there. Concurrent
// streamers are independent: each holds its own file handle and
// offset, so one client cancelling its request (or the whole sweep
// being cancelled) never perturbs another's byte sequence.
func (d *Daemon) streamHandler(path func(id string) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := d.Status(id); err != nil {
			writeError(w, errorCode(err), err)
			return
		}
		offset, err := parseOffset(r.URL.Query().Get("offset"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		host := clientHost(r.RemoteAddr)
		if !d.acquireStream(host) {
			oe := &OverloadError{
				Reason:     fmt.Sprintf("too many concurrent streams for client %s (max %d)", host, d.maxClientStreams),
				RetryAfter: time.Second,
			}
			writeError(w, http.StatusTooManyRequests, oe)
			return
		}
		defer d.releaseStream(host)
		follow := r.URL.Query().Get("follow") != "0"
		w.Header().Set("Content-Type", "application/x-ndjson")
		d.streamFile(w, r, id, path(id), offset, follow)
	}
}

func parseOffset(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("sweepd: bad offset %q", s)
	}
	return n, nil
}

// streamPoll is how often a follow-mode stream re-checks the file and
// the sweep state for progress.
const streamPoll = 150 * time.Millisecond

func (d *Daemon) streamFile(w http.ResponseWriter, r *http.Request, id, path string, offset int64, follow bool) {
	flusher, _ := w.(http.Flusher)
	var f *os.File
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	buf := make([]byte, 64<<10)
	wrote := false
	for {
		// Read the state before draining: execute closes the sink
		// before finish publishes a terminal state, so a drain that
		// starts after seeing "terminal" reaches the file's last byte.
		st, err := d.Status(id)
		terminal := err != nil || st.Terminal()
		if f == nil {
			f, err = os.Open(path)
			if err != nil && !os.IsNotExist(err) {
				if !wrote {
					writeError(w, http.StatusInternalServerError, err)
				}
				return
			}
			if f != nil {
				if _, err := f.Seek(offset, io.SeekStart); err != nil {
					if !wrote {
						writeError(w, http.StatusInternalServerError, err)
					}
					return
				}
			}
		}
		progressed := false
		if f != nil {
			for {
				n, err := f.Read(buf)
				if n > 0 {
					if _, werr := w.Write(buf[:n]); werr != nil {
						return // client went away
					}
					offset += int64(n)
					wrote = true
					progressed = true
				}
				if err != nil {
					break // EOF (or read error): fall through to wait/terminal check
				}
			}
		}
		if progressed && flusher != nil {
			flusher.Flush()
		}
		if !follow || terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-d.baseCtx.Done():
			return
		case <-time.After(streamPoll):
		}
	}
}

// Worker wire types.

// LeaseRequest is a worker's long-poll for a job.
type LeaseRequest struct {
	Worker string `json:"worker"`
	WaitMs int64  `json:"wait_ms,omitempty"`
}

// LeaseGrant is a successful lease: run Job and report under Lease
// before TTLMs elapses (renewing as needed).
type LeaseGrant struct {
	Lease string     `json:"lease"`
	TTLMs int64      `json:"ttl_ms"`
	Job   runner.Job `json:"job"`
}

// LeaseUpdate renews or resolves a lease.
type LeaseUpdate struct {
	Lease string `json:"lease"`
	// Job is the reported job's content key, required on the result
	// endpoint: the idempotency key the daemon dedupes redelivered
	// reports by.
	Job string `json:"job,omitempty"`
	// Result/Error report the attempt outcome (result endpoint only).
	Result *stats.Sim `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Panic marks an Error that is a recovered panic, so the daemon
	// ledgers it as one (runner.PanicError), exactly as a local panic.
	Panic bool `json:"panic,omitempty"`
}

// maxLeaseWait caps a worker's long-poll window server-side.
const maxLeaseWait = 30 * time.Second

func (d *Daemon) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: bad lease request: %w", err))
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: lease request needs a worker name"))
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait <= 0 || wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	id, job, ttl, ok := d.broker.Lease(r.Context(), req.Worker, wait)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, LeaseGrant{Lease: id, TTLMs: ttl.Milliseconds(), Job: job})
}

func (d *Daemon) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req LeaseUpdate
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: bad renew: %w", err))
		return
	}
	if err := d.broker.Renew(req.Lease); err != nil {
		writeError(w, http.StatusGone, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	var req LeaseUpdate
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: bad result: %w", err))
		return
	}
	if req.Job == "" {
		// The job key is what makes a report land on the right job and
		// match only its own resolved lease as a duplicate.
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: result needs its job key"))
		return
	}
	var st stats.Sim
	var attemptErr error
	if req.Error != "" {
		attemptErr = errors.New(req.Error)
		if req.Panic {
			attemptErr = runner.PanicError(req.Error)
		}
	} else if req.Result != nil {
		st = *req.Result
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweepd: result needs result or error"))
		return
	}
	if err := d.broker.Resolve(req.Lease, req.Job, st, attemptErr); err != nil {
		// The lease expired and the job is re-running locally: the
		// worker's result is discarded, by design exactly once.
		writeError(w, http.StatusGone, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
