package banshee_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"banshee"
)

// e2eMatrix is the sweep both service e2e tests run: small enough to
// finish in seconds, large enough that a kill lands mid-sweep.
func e2eMatrix() banshee.Matrix {
	base := banshee.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore = 300_000
	base.Seed = 11
	return banshee.Matrix{Name: "e2e", Base: base,
		Workloads: []string{"pagerank", "lbm"},
		Schemes:   []string{"NoCache", "Alloy 1", "Banshee"}}
}

// goldenBatch runs the matrix locally through RunBatch and returns the
// checkpoint bytes the service must converge to.
func goldenBatch(t *testing.T, m banshee.Matrix) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.jsonl")
	if _, err := banshee.RunBatch(context.Background(), m, banshee.BatchOptions{Out: path}); err != nil {
		t.Fatalf("golden RunBatch: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func buildSweepd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "sweepd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sweepd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/sweepd: %v\n%s", err, out)
	}
	return bin
}

var servingRE = regexp.MustCompile(`serving on http://([0-9.:]+)`)

// startSweepd launches `sweepd serve` on a free port and returns the
// process and its resolved address, parsed from the startup log line.
func startSweepd(t *testing.T, bin, state, logPath string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	logf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"serve", "-listen", "127.0.0.1:0", "-state", state, "-quiet"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		logf.Close()
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		b, _ := os.ReadFile(logPath)
		if m := servingRE.FindSubmatch(b); m != nil {
			return cmd, string(m[1])
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	b, _ := os.ReadFile(logPath)
	t.Fatalf("sweepd never reported its address; log:\n%s", b)
	return nil, ""
}

// scrapeMetric fetches /metrics and returns the named unlabeled series'
// value (0 with ok=false when absent).
func scrapeMetric(addr, name string) (float64, bool) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, found := strings.CutPrefix(line, name+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestSweepdSIGKILLRestartConvergence is the service's durability
// contract on the real binary: a daemon SIGKILLed mid-sweep — no
// defers, no handlers, possibly mid-write — restarted on the same
// state directory resumes the sweep and serves results byte-identical
// to a local RunBatch of the same Matrix.
func TestSweepdSIGKILLRestartConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a subprocess")
	}
	dir := t.TempDir()
	bin := buildSweepd(t, dir)
	m := e2eMatrix()
	golden := goldenBatch(t, m)

	state := filepath.Join(dir, "state")
	cmd, addr := startSweepd(t, bin, state, filepath.Join(dir, "serve1.log"))
	c, err := banshee.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.SubmitMatrix(ctx, m, banshee.SweepOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Let the first checkpoint record reach the disk, then SIGKILL the
	// daemon.
	resultsFile := filepath.Join(state, "sweeps", st.ID, "results.jsonl")
	deadline := time.Now().Add(60 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(resultsFile); err == nil && bytes.Count(b, []byte{'\n'}) >= 1 {
			cmd.Process.Signal(syscall.SIGKILL)
			killed = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	err = cmd.Wait()
	if !killed {
		t.Fatalf("no checkpoint records appeared before the deadline (daemon err: %v)", err)
	}
	// A starved poller can see the first record only after the daemon
	// has finished every job and written its done marker. The restarted
	// daemon then reports the sweep done without running it again, so
	// it finishes no sweep itself.
	_, statErr := os.Stat(filepath.Join(state, "sweeps", st.ID, "done.json"))
	doneBeforeKill := statErr == nil

	// Restart on the same state directory: the daemon must resume the
	// sweep unprompted and finish it.
	_, addr2 := startSweepd(t, bin, state, filepath.Join(dir, "serve2.log"))
	c2, err := banshee.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c2.Wait(ctx, st.ID, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != banshee.SweepDone || final.Done != final.Jobs {
		t.Fatalf("resumed sweep ended %+v, want done %d/%d", final, final.Jobs, final.Jobs)
	}

	var streamed bytes.Buffer
	if _, err := c2.StreamResults(ctx, st.ID, 0, &streamed); err != nil {
		t.Fatalf("stream after restart: %v", err)
	}
	if !bytes.Equal(streamed.Bytes(), golden) {
		t.Fatalf("service results diverge from local RunBatch:\n got %d bytes\nwant %d bytes",
			streamed.Len(), len(golden))
	}
	onDisk, err := os.ReadFile(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, golden) {
		t.Fatalf("state-dir results diverge from local RunBatch (%d vs %d bytes)", len(onDisk), len(golden))
	}
	v, ok := scrapeMetric(addr2, "sweepd_sweeps_finished_total")
	switch {
	case doneBeforeKill && (!ok || v != 0):
		t.Fatalf("sweep was done before the kill, yet sweepd_sweeps_finished_total = %v (present=%v), want 0", v, ok)
	case !doneBeforeKill && (!ok || v < 1):
		t.Fatalf("sweepd_sweeps_finished_total = %v (present=%v), want >= 1", v, ok)
	}
}

// TestSweepdWorkerSIGKILLNoDuplicates: SIGKILLing an attached worker
// process mid-lease costs only its leased jobs — their leases expire,
// the daemon re-runs them locally, and the final stream holds no
// duplicate records (it is byte-identical to a local run).
func TestSweepdWorkerSIGKILLNoDuplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills subprocesses")
	}
	dir := t.TempDir()
	bin := buildSweepd(t, dir)
	m := e2eMatrix()
	golden := goldenBatch(t, m)

	state := filepath.Join(dir, "state")
	_, addr := startSweepd(t, bin, state, filepath.Join(dir, "serve.log"),
		"-lease-ttl", "1s", "-parallel", "2")

	wlog, err := os.Create(filepath.Join(dir, "worker.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	wk := exec.Command(bin, "worker", "-join", addr, "-parallel", "2")
	wk.Stdout = wlog
	wk.Stderr = wlog
	if err := wk.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if wk.ProcessState == nil {
			wk.Process.Kill()
			wk.Wait()
		}
	})

	c, err := banshee.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := c.SubmitMatrix(ctx, m, banshee.SweepOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// SIGKILL the worker the moment it holds a lease.
	deadline := time.Now().Add(60 * time.Second)
	leased := false
	for time.Now().Before(deadline) {
		if v, ok := scrapeMetric(addr, "sweepd_leases_outstanding"); ok && v > 0 {
			wk.Process.Signal(syscall.SIGKILL)
			leased = true
			break
		}
		if final, err := c.Status(ctx, st.ID); err == nil && final.Terminal() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !leased {
		b, _ := os.ReadFile(filepath.Join(dir, "worker.log"))
		t.Fatalf("worker never held a lease before the sweep finished; worker log:\n%s", b)
	}
	wk.Wait()

	final, err := c.Wait(ctx, st.ID, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != banshee.SweepDone {
		t.Fatalf("sweep ended %+v, want done", final)
	}

	var streamed bytes.Buffer
	if _, err := c.StreamResults(ctx, st.ID, 0, &streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), golden) {
		t.Fatalf("results after worker SIGKILL diverge from local RunBatch:\n got %d bytes\nwant %d bytes",
			streamed.Len(), len(golden))
	}

	// The killed worker either left an expired lease behind (re-run
	// locally) or had already delivered results; both must be visible
	// in the service series.
	exp, _ := scrapeMetric(addr, "sweepd_lease_expiries_total")
	rem, _ := scrapeMetric(addr, "sweepd_remote_results_total")
	if exp+rem == 0 {
		t.Fatalf("no lease expiries and no remote results recorded — worker never participated")
	}
}

// TestSweepStateConstants smokes the exported sweep-service surface:
// the state constants agree with Status.Terminal, JobKey matches the
// enumerated content IDs, and SweepSpecFromMatrix's spec is the same
// sweep after a JSON round trip.
func TestSweepStateConstants(t *testing.T) {
	for _, s := range []string{banshee.SweepDone, banshee.SweepFailed, banshee.SweepCancelled} {
		if !(banshee.SweepStatus{State: s}).Terminal() {
			t.Fatalf("state %q should be terminal", s)
		}
	}
	for _, s := range []string{banshee.SweepQueued, banshee.SweepRunning} {
		if (banshee.SweepStatus{State: s}).Terminal() {
			t.Fatalf("state %q should not be terminal", s)
		}
	}
	m := e2eMatrix()
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if banshee.JobKey(j.Config) != j.ID {
			t.Fatalf("JobKey(%s) != enumerated ID %s", j.Coord(), j.ID)
		}
	}
	if banshee.SweepID(m.Name, jobs) == "" {
		t.Fatal("empty sweep ID")
	}
	spec, err := banshee.SweepSpecFromMatrix(m, banshee.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var wire banshee.SweepSpec
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	wireJobs, _, err := wire.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := banshee.SweepID(wire.Name, wireJobs), banshee.SweepID(m.Name, jobs); got != want {
		t.Fatalf("spec resolves to sweep %s, want %s", got, want)
	}
}
