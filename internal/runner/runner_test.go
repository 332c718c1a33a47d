package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"banshee/internal/sim"
	"banshee/internal/stats"
	"banshee/internal/workload"
)

// testMatrix is small enough for unit tests but exercises every axis:
// two workloads, two schemes, and a two-point config sweep.
func testMatrix(name string) Matrix {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore = 60_000
	base.Seed = 11
	return Matrix{
		Name:      name,
		Base:      base,
		Workloads: []string{"pagerank", "lbm"},
		Schemes:   []string{"NoCache", "Banshee"},
		Points: []Point{
			{Label: "base"},
			{Label: "lat66", Set: json.RawMessage(`{"InPkgLatScale":0.66}`)},
		},
	}
}

func TestMatrixEnumeration(t *testing.T) {
	m := testMatrix("enum")
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 8 {
		t.Fatalf("expected 8 jobs, got %d", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Coord()] {
			t.Fatalf("duplicate coord %s", j.Coord())
		}
		seen[j.Coord()] = true
		if j.Config.Workload != j.Workload {
			t.Fatalf("config workload %q != job workload %q", j.Config.Workload, j.Workload)
		}
		if j.ID == "" {
			t.Fatal("missing content ID")
		}
	}
	// Content keys must differ across points but match across re-enumeration.
	again, _ := m.Jobs()
	for i := range jobs {
		if jobs[i].ID != again[i].ID {
			t.Fatalf("job %d ID unstable: %s vs %s", i, jobs[i].ID, again[i].ID)
		}
	}
	if jobs[0].ID == jobs[4].ID {
		t.Fatal("different points share a content ID")
	}
}

func TestContentKeyTracksConfig(t *testing.T) {
	m := testMatrix("key")
	a, _ := m.Jobs()
	m.Base.InstrPerCore = 70_000
	b, _ := m.Jobs()
	for i := range a {
		if a[i].ID == b[i].ID {
			t.Fatalf("job %d ID unchanged after config edit", i)
		}
	}
}

func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	m := testMatrix("det")
	serial, err := Engine{Parallelism: 1}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Engine{Parallelism: 4}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Executed == 0 {
		t.Fatal("nothing executed")
	}
	for _, r := range serial.Records() {
		got := parallel.Get(r.Label, r.Workload, r.Scheme)
		if got.Cycles != r.Result.Cycles || got.InPkg != r.Result.InPkg {
			t.Fatalf("%s: parallel run diverged from serial", r.Workload)
		}
	}
}

// TestGoldenResume is the checkpoint/resume contract: killing a sweep
// after k jobs (simulated by truncating the JSONL to k complete lines,
// plus a torn partial line) and re-running with resume must finish the
// remaining jobs without re-simulating the first k, and the final file
// must be byte-identical to an uninterrupted run's.
func TestGoldenResume(t *testing.T) {
	dir := t.TempDir()
	m := testMatrix("golden")

	fullPath := filepath.Join(dir, "full.jsonl")
	sink, err := OpenSink(fullPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Engine{Parallelism: 3, Sink: sink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	if len(lines) < 8 {
		t.Fatalf("expected >= 8 result lines, got %d", len(lines))
	}

	// Interrupted file: 3 complete records plus a torn tail.
	partialPath := filepath.Join(dir, "partial.jsonl")
	partial := append([]byte{}, bytes.Join(lines[:3], nil)...)
	partial = append(partial, []byte(`{"id":"torn`)...)
	if err := os.WriteFile(partialPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	sink2, err := OpenSink(partialPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sink2.Loaded()); got != 3 {
		t.Fatalf("loaded %d records from torn file, want 3", got)
	}
	rs, err := (Engine{Parallelism: 3, Sink: sink2}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	if rs.Cached != 3 {
		t.Fatalf("resumed run cached %d jobs, want 3", rs.Cached)
	}
	if rs.Executed != 5 {
		t.Fatalf("resumed run executed %d jobs, want 5", rs.Executed)
	}
	resumed, err := os.ReadFile(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full) {
		t.Fatalf("resumed JSONL differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}

	// A second resume over the complete file executes nothing.
	sink3, err := OpenSink(partialPath, true)
	if err != nil {
		t.Fatal(err)
	}
	rs3, err := (Engine{Sink: sink3}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink3.Close()
	if rs3.Executed != 0 || rs3.Cached != 8 {
		t.Fatalf("complete resume executed %d / cached %d, want 0/8", rs3.Executed, rs3.Cached)
	}
	again, _ := os.ReadFile(partialPath)
	if !bytes.Equal(again, full) {
		t.Fatal("no-op resume modified the file")
	}
}

// TestResumeIgnoresStaleResults: edits to the matrix change content
// keys, so resume must re-simulate rather than serve stale records.
func TestResumeIgnoresStaleResults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	m := testMatrix("stale")
	m.Workloads = []string{"pagerank"}

	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Engine{Sink: sink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	m.Base.InstrPerCore = 80_000 // the sweep was edited
	sink2, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (Engine{Sink: sink2}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	if rs.Cached != 0 || rs.Executed != 4 {
		t.Fatalf("stale resume cached %d / executed %d, want 0/4", rs.Cached, rs.Executed)
	}

	// The stale records must be pruned, not left ahead of the fresh
	// ones: the resumed file must equal a from-scratch run's.
	resumed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	freshPath := filepath.Join(dir, "fresh.jsonl")
	sink3, err := OpenSink(freshPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Engine{Sink: sink3}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink3.Close()
	fresh, _ := os.ReadFile(freshPath)
	if !bytes.Equal(resumed, fresh) {
		t.Fatalf("stale resume left a dirty file:\n--- resumed ---\n%s--- fresh ---\n%s", resumed, fresh)
	}
}

// TestResumeReusesBeyondBrokenPrefix: when an edit invalidates an early
// job, later still-valid results are pruned from the file but reused by
// content key — re-appended in order without re-simulation.
func TestResumeReusesBeyondBrokenPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	m := testMatrix("prefix")
	m.Workloads = []string{"pagerank"}
	m.Points = []Point{
		{Label: "a"},
		{Label: "b", Set: json.RawMessage(`{"InPkgLatScale":0.66}`)},
	}

	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Engine{Sink: sink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	// Edit only point "a": its 2 jobs re-simulate; point "b"'s 2 jobs
	// fall after the broken prefix but are reused by content key.
	m.Points[0].Set = json.RawMessage(`{"InPkgLatScale":0.9}`)
	sink2, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (Engine{Sink: sink2}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink2.Close()
	if rs.Executed != 2 || rs.Cached != 2 {
		t.Fatalf("executed %d / cached %d, want 2/2", rs.Executed, rs.Cached)
	}
	if got := len(rs.Records()); got != 4 {
		t.Fatalf("want 4 records, got %d", got)
	}
	// File must hold exactly the 4 current records, in order.
	sink3, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sink3.Close()
	if got := len(sink3.Loaded()); got != 4 {
		t.Fatalf("file holds %d records, want 4", got)
	}
	rs2, err := (Engine{Sink: sink3}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Executed != 0 {
		t.Fatalf("follow-up resume executed %d jobs", rs2.Executed)
	}
}

// TestIdenticalConfigsSimulateOnce: two points that resolve to the same
// config share one simulation but keep distinct records.
func TestIdenticalConfigsSimulateOnce(t *testing.T) {
	m := testMatrix("dedupe")
	m.Workloads = []string{"pagerank"}
	m.Schemes = []string{"NoCache"}
	m.Points = []Point{
		{Label: "a"},
		{Label: "b"}, // same config, different label
	}
	rs, err := Engine{Parallelism: 2}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 1 || rs.Cached != 1 {
		t.Fatalf("executed %d / cached %d, want 1/1", rs.Executed, rs.Cached)
	}
	if len(rs.Records()) != 2 {
		t.Fatalf("want 2 records, got %d", len(rs.Records()))
	}
	if rs.Get("a", "pagerank", "NoCache").Cycles != rs.Get("b", "pagerank", "NoCache").Cycles {
		t.Fatal("deduped points disagree")
	}
}

// TestTwinNeverHoldsAWorker runs [a, b, a2] on two workers, where a2
// is a's twin and a's runner cannot finish until b has started. A twin
// that occupied a worker while waiting on its first copy would leave
// no worker for b, and the sweep would stall.
func TestTwinNeverHoldsAWorker(t *testing.T) {
	m := testMatrix("twinslot")
	m.Workloads = m.Workloads[:1]
	m.Schemes = m.Schemes[:1]
	m.Points = []Point{
		{Label: "a"},
		{Label: "b", Set: json.RawMessage(`{"InPkgLatScale":0.5}`)},
		{Label: "a2"}, // same config as a
	}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].ID != jobs[2].ID || jobs[0].ID == jobs[1].ID {
		t.Fatal("test premise broken: want a and a2 twins, b distinct")
	}
	bStarted := make(chan struct{})
	run := func(ctx context.Context, group []Job) ([]stats.Sim, error) {
		switch group[0].Label {
		case "b":
			close(bStarted)
		case "a":
			select {
			case <-bStarted:
			case <-time.After(3 * time.Second):
				return nil, errors.New("a worker is stuck: b never started")
			}
		}
		return make([]stats.Sim, len(group)), nil
	}
	rs, err := Engine{Parallelism: 2, JobRunner: run}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != 2 || rs.Cached != 1 || len(rs.Records()) != 3 {
		t.Fatalf("executed %d / cached %d / records %d, want 2/1/3", rs.Executed, rs.Cached, len(rs.Records()))
	}
}

func TestEngineErrorSurfaces(t *testing.T) {
	m := testMatrix("err")
	m.Schemes = []string{"NoCache"}
	m.Points = []Point{{Label: "bad", Set: json.RawMessage(`{"Scheme":{"Kind":"bogus"}}`)}}
	if _, err := (Engine{}).Run(context.Background(), m); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("expected build error, got %v", err)
	}
}

func TestMatrixValidation(t *testing.T) {
	if _, err := (Matrix{Name: "empty"}).Jobs(); err == nil {
		t.Fatal("empty matrix enumerated")
	}
	m := testMatrix("badscheme")
	m.Schemes = []string{"NotAScheme"}
	if _, err := m.Jobs(); err == nil {
		t.Fatal("unknown scheme enumerated")
	}
	m = testMatrix("repeat")
	m.Seeds = []uint64{3, 3} // two jobs at one coordinate
	if _, err := m.Jobs(); err == nil || !strings.Contains(err.Error(), "repeats coordinate") {
		t.Fatalf("repeated seed: got %v, want a repeats-coordinate error", err)
	}
	m = testMatrix("typo")
	m.Points = []Point{{Label: "p", Set: json.RawMessage(`{"InPkgLatScal":0.5}`)}}
	if _, err := m.Jobs(); err == nil || !strings.Contains(err.Error(), "bad override") {
		t.Fatalf("unknown override field: got %v, want a bad-override error", err)
	}
}

// TestLargePageSchemeGetsLargePages: a scheme that caches 2 MB pages
// runs on 2 MB pages whatever the base config or the point says, and
// no other scheme's pages move.
func TestLargePageSchemeGetsLargePages(t *testing.T) {
	m := testMatrix("2m")
	m.Schemes = []string{"Banshee", "Banshee 2M"}
	m.Points = []Point{{Label: "off", Set: json.RawMessage(`{"LargePages":false}`)}}
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if want := j.Scheme == "Banshee 2M"; j.Config.LargePages != want {
			t.Fatalf("%s: LargePages = %v, want %v", j.Coord(), j.Config.LargePages, want)
		}
	}
}

// TestWorkStealing drains a one-workload matrix with more workers than
// workloads, so every worker contends for the one job queue, and
// checks every job completes exactly once. Run under -race in CI to
// shake out pool races.
func TestWorkStealing(t *testing.T) {
	m := testMatrix("steal")
	m.Workloads = []string{"pagerank"} // one queue, many workers
	m.Schemes = []string{"NoCache", "CacheOnly", "TDC", "Banshee"}
	rs, err := Engine{Parallelism: 4}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rs.Records()); got != 8 {
		t.Fatalf("want 8 records, got %d", got)
	}
	if rs.Executed != 8 {
		t.Fatalf("executed %d, want 8", rs.Executed)
	}
}

// TestScheduleFollowsEnumeration: a single worker takes job groups in
// matrix enumeration order, and every record completed before a group
// starts is already in the sink file — a kill then loses only the
// group in flight. A schedule that drained one workload across all
// points first would hold the finished jobs of later workloads off
// disk behind the earlier points' unfinished ones.
func TestScheduleFollowsEnumeration(t *testing.T) {
	m := testMatrix("order")
	m.Base.InstrPerCore = 20_000
	m.Schemes = []string{"NoCache"}
	m.Points = append(m.Points, Point{Label: "lat50", Set: json.RawMessage(`{"InPkgLatScale":0.5}`)})
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	for i, j := range jobs {
		index[j.Coord()] = i
	}
	path := filepath.Join(t.TempDir(), "order.jsonl")
	var started, completed []string // coords, in order
	check := func(ctx context.Context, group []Job) ([]stats.Sim, error) {
		if n := len(started); n > 0 && index[group[0].Coord()] < index[started[n-1]] {
			t.Errorf("group %s started after %s, against enumeration order", group[0].Coord(), started[n-1])
		}
		started = append(started, group[0].Coord())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		recs, err := ParseRecords(data)
		if err != nil {
			return nil, err
		}
		onDisk := map[string]bool{}
		for _, r := range recs {
			onDisk[coordKey(r.Matrix, r.Label, r.Workload, r.Scheme, r.Seed)] = true
		}
		for _, c := range completed {
			if !onDisk[c] {
				t.Errorf("group %s started while completed job %s was not on disk", group[0].Coord(), c)
			}
		}
		sts, err := Simulate(ctx, group)
		if err == nil {
			for _, j := range group {
				completed = append(completed, j.Coord())
			}
		}
		return sts, err
	}
	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Engine{Parallelism: 1, Sink: sink, JobRunner: check}.Run(context.Background(), m)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rs.Executed != len(jobs) || len(started) != len(jobs) {
		t.Fatalf("executed %d jobs in %d groups, want %d singles", rs.Executed, len(started), len(jobs))
	}
}

func TestBatchOverRecordedTrace(t *testing.T) {
	// Recorded traces are first-class batch workloads: a matrix mixing
	// "file:<path>" and synthetic names runs them side by side, with
	// concurrent jobs each opening their own reader over the same file,
	// and the replayed jobs match the direct synthetic jobs exactly.
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore = 40_000
	base.Seed = 11
	path := filepath.Join(t.TempDir(), "gcc.btrc")
	err := workload.Record(path, "gcc", workload.Config{
		Cores: base.Cores, Seed: base.Seed, Scale: base.Scale, Intensity: base.Intensity,
	}, base.InstrPerCore)
	if err != nil {
		t.Fatal(err)
	}
	m := Matrix{
		Name:      "replay",
		Base:      base,
		Workloads: []string{"gcc", "file:" + path},
		Schemes:   []string{"NoCache", "Banshee"},
		Seeds:     []uint64{11},
	}
	rs, err := Engine{Parallelism: 4}.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range m.Schemes {
		direct := rs.Get("", "gcc", scheme)
		replayed := rs.Get("", "file:"+path, scheme)
		replayed.Workload = direct.Workload
		if direct != replayed {
			t.Errorf("%s: replayed batch job differs from direct job", scheme)
		}
	}
}

// cancelAfterWriter cancels a context after n progress lines — a
// deterministic stand-in for a SIGINT landing mid-sweep.
type cancelAfterWriter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	if w.n--; w.n == 0 {
		w.cancel()
	}
	return len(p), nil
}

// TestCancelMidSweepResumesByteIdentical pins the cancellation
// contract end to end: a sweep cancelled mid-run returns an error
// matching context.Canceled and leaves its JSONL sink a clean
// enumeration-order prefix; resuming the same matrix completes the
// file byte-identically to an uninterrupted run's.
func TestCancelMidSweepResumesByteIdentical(t *testing.T) {
	m := testMatrix("cancel")
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	interrupted := filepath.Join(dir, "interrupted.jsonl")

	sink, err := OpenSink(full, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Engine{Parallelism: 2, Sink: sink}).Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	// Interrupt after the second completed job. Workers abandon their
	// in-flight simulations; no partial record may reach the sink.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink2, err := OpenSink(interrupted, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = (Engine{Parallelism: 2, Sink: sink2,
		Progress: &cancelAfterWriter{n: 2, cancel: cancel}}).Run(ctx, m)
	sink2.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}

	// The interrupted file must be a clean strict prefix of the full run.
	fullBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	part, err := os.ReadFile(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) >= len(fullBytes) {
		t.Fatalf("interrupted file not shorter: %d vs %d bytes", len(part), len(fullBytes))
	}
	if !bytes.HasPrefix(fullBytes, part) {
		t.Fatal("interrupted file is not a prefix of the uninterrupted run's")
	}

	// Resume completes it byte-identically.
	sink3, err := OpenSink(interrupted, true)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := (Engine{Parallelism: 2, Sink: sink3}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	sink3.Close()
	// Every record the interrupted run flushed is served from disk, not
	// re-simulated. (The prefix can legitimately be empty: the in-order
	// flush frontier may not have advanced when the cancel landed.)
	if onDisk := bytes.Count(part, []byte{'\n'}); rs.Cached < onDisk {
		t.Fatalf("resume cached %d jobs, interrupted file held %d", rs.Cached, onDisk)
	}
	resumed, err := os.ReadFile(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, fullBytes) {
		t.Fatal("resumed file differs from uninterrupted run's")
	}
}
