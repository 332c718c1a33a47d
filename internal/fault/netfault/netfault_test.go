package netfault

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"banshee/internal/obs"
)

// forceMode builds a transport whose every decision draws mode m.
func forceMode(m Mode, inner http.RoundTripper) *Transport {
	p := Plan{Seed: 1}
	switch m {
	case DropReq:
		p.DropReqRate = 1
	case DropResp:
		p.DropRespRate = 1
	case Truncate:
		p.TruncateRate = 1
	case Latency:
		p.LatencyRate = 1
	case Err5xx:
		p.Err5xxRate = 1
	case Duplicate:
		p.DuplicateRate = 1
	}
	return NewTransport(p, inner)
}

// TestModeForDeterministicAndDistributed: the decision function is a
// pure hash (same inputs, same mode; different seeds decorrelate) and
// at a 10% total rate roughly 10% of keys draw a fault.
func TestModeForDeterministicAndDistributed(t *testing.T) {
	plan := Plan{Seed: 42, DropReqRate: 0.02, DropRespRate: 0.02,
		TruncateRate: 0.02, Err5xxRate: 0.02, DuplicateRate: 0.02}
	a := NewTransport(plan, nil)
	b := NewTransport(plan, nil)
	faults := 0
	const trials = 4000
	for i := range trials {
		m := a.ModeFor("POST", "/v1/workers/result", uint64(i))
		if m != b.ModeFor("POST", "/v1/workers/result", uint64(i)) {
			t.Fatalf("attempt %d: decision not deterministic", i)
		}
		if m != None {
			faults++
		}
	}
	got := float64(faults) / trials
	if got < 0.05 || got > 0.18 {
		t.Fatalf("fault rate %.3f far from planned %.3f", got, plan.Rate())
	}
	other := NewTransport(Plan{Seed: 43, DropReqRate: 0.02, DropRespRate: 0.02,
		TruncateRate: 0.02, Err5xxRate: 0.02, DuplicateRate: 0.02}, nil)
	same := 0
	for i := range trials {
		if a.ModeFor("GET", "/v1/sweeps", uint64(i)) == other.ModeFor("GET", "/v1/sweeps", uint64(i)) {
			same++
		}
	}
	if same == trials {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestTransportModes drives each mode against a counting backend and
// checks the delivery contract: DropReq/Err5xx never reach the
// server, DropResp reaches it once but errors, Duplicate reaches it
// twice and succeeds.
func TestTransportModes(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	cases := []struct {
		mode     Mode
		wantHits int64
		wantErr  bool
		wantCode int
	}{
		{DropReq, 0, true, 0},
		{Err5xx, 0, false, http.StatusServiceUnavailable},
		{DropResp, 1, true, 0},
		{Duplicate, 2, false, http.StatusOK},
		{Latency, 1, false, http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			hits.Store(0)
			before := InjectedCount(tc.mode)
			hc := &http.Client{Transport: forceMode(tc.mode, nil)}
			resp, err := hc.Post(srv.URL+"/v1/sweeps", "application/json",
				strings.NewReader(`{"spec":1}`))
			if tc.wantErr {
				if err == nil {
					resp.Body.Close()
					t.Fatalf("mode %v: want transport error, got status %d", tc.mode, resp.StatusCode)
				}
				if !errors.Is(err, ErrInjected) {
					// http.Client wraps the RoundTripper error in a
					// *url.Error; ErrInjected must still surface.
					t.Fatalf("mode %v: error %v does not wrap ErrInjected", tc.mode, err)
				}
			} else {
				if err != nil {
					t.Fatalf("mode %v: %v", tc.mode, err)
				}
				if resp.StatusCode != tc.wantCode {
					t.Fatalf("mode %v: status %d, want %d", tc.mode, resp.StatusCode, tc.wantCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if hits.Load() != tc.wantHits {
				t.Fatalf("mode %v: server saw %d requests, want %d", tc.mode, hits.Load(), tc.wantHits)
			}
			if InjectedCount(tc.mode) != before+1 {
				t.Fatalf("mode %v: tally did not advance", tc.mode)
			}
		})
	}
}

// TestTransportTruncateTearsBody: a truncated response yields a read
// error partway through the body, wrapping ErrInjected.
func TestTransportTruncateTearsBody(t *testing.T) {
	payload := strings.Repeat("x", 8192)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer srv.Close()
	hc := &http.Client{Transport: forceMode(Truncate, nil)}
	resp, err := hc.Get(srv.URL + "/v1/sweeps/x/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes with no error; want torn stream", len(b))
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn-body error %v does not wrap ErrInjected", err)
	}
	if len(b) == 0 || len(b) >= len(payload) {
		t.Fatalf("truncated read returned %d bytes of %d", len(b), len(payload))
	}
}

// TestTransportDuplicateSkipsNonReplayable: a request whose body has
// no GetBody cannot be safely duplicated — the transport downgrades
// to clean delivery instead of corrupting the call.
func TestTransportDuplicateSkipsNonReplayable(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body)
	}))
	defer srv.Close()
	req, err := http.NewRequest("POST", srv.URL+"/x", io.NopCloser(strings.NewReader("body")))
	if err != nil {
		t.Fatal(err)
	}
	req.GetBody = nil
	resp, err := forceMode(Duplicate, nil).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 1 {
		t.Fatalf("non-replayable body delivered %d times, want exactly 1", hits.Load())
	}
}

// TestInstrument: the tallies surface through any obs registry's
// exposition as banshee_net_faults_injected_total{mode=...}, with no
// wiring call.
func TestInstrument(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	hc := &http.Client{Transport: forceMode(Err5xx, nil)}
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r := obs.NewRegistry()
	mux := http.NewServeMux()
	obs.HandleMetrics(mux, r)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `banshee_net_faults_injected_total{mode="err_5xx"}`) {
		t.Fatalf("metrics exposition missing err_5xx tally:\n%s", rec.Body.String())
	}
}

// TestProxyForwardsAndPartitions: a clean proxy is transparent; a
// partition window kills established connections and refuses new
// ones; after the window closes, traffic flows again.
func TestProxyForwardsAndPartitions(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	}))
	defer srv.Close()
	target := strings.TrimPrefix(srv.URL, "http://")
	px, err := NewProxy(target, ProxyPlan{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	get := func() (string, error) {
		hc := &http.Client{Timeout: 2 * time.Second,
			Transport: &http.Transport{DisableKeepAlives: true}}
		resp, err := hc.Get("http://" + px.Addr() + "/ping")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("clean proxy: body=%q err=%v", body, err)
	}
	px.Partition(400 * time.Millisecond)
	if _, err := get(); err == nil {
		t.Fatal("request succeeded during partition window")
	}
	time.Sleep(450 * time.Millisecond)
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("post-partition proxy: body=%q err=%v", body, err)
	}
	if px.PartitionCount() != 1 || px.RefusedCount() == 0 {
		t.Fatalf("partition accounting: windows=%d refused=%d", px.PartitionCount(), px.RefusedCount())
	}
}

// TestProxyCutsMidStream: with CutRate=1 every connection dies after
// its byte budget — a large transfer through the proxy must fail
// partway, not complete.
func TestProxyCutsMidStream(t *testing.T) {
	payload := strings.Repeat("y", 64*1024)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, payload)
	}))
	defer srv.Close()
	target := strings.TrimPrefix(srv.URL, "http://")
	px, err := NewProxy(target, ProxyPlan{Seed: 7, CutRate: 1, CutAfter: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	hc := &http.Client{Timeout: 5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get("http://" + px.Addr() + "/big")
	if err == nil {
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && len(b) == len(payload) {
			t.Fatalf("64KiB transfer survived a proxy with CutRate=1, CutAfter=8KiB")
		}
	}
	if px.CutCount() == 0 {
		t.Fatal("proxy recorded no cuts")
	}
}
