package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"banshee/internal/obs"
	"banshee/internal/sim"
	"banshee/internal/stats"
)

// gangMatrix is a seed sweep whose jobs are gang-eligible: the base
// config pins WorkloadSeed, so lanes differing only by Seed share one
// front-end stream. "Alloy 1" jobs gang; "Banshee" jobs must keep
// running as independent singles (not gang-safe), proving eligibility
// is per job, not per sweep.
func gangMatrix(name string) Matrix {
	base := sim.DefaultConfig()
	base.Cores = 2
	base.InstrPerCore = 40_000
	base.Seed = 11
	base.WorkloadSeed = 11
	return Matrix{
		Name:      name,
		Base:      base,
		Workloads: []string{"pagerank"},
		Schemes:   []string{"Alloy 1", "Banshee"},
		Seeds:     []uint64{1, 2, 3, 4},
	}
}

func gangRunToFile(t *testing.T, e Engine, m Matrix, path string) (*ResultSet, []byte) {
	t.Helper()
	sink, err := OpenSink(path, false)
	if err != nil {
		t.Fatal(err)
	}
	e.Sink = sink
	rs, err := e.Run(context.Background(), m)
	sink.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return rs, data
}

// TestGangSweepByteIdentical: a ganged sweep's JSONL output must be
// byte-identical to the ungrouped sweep's — same records, same order,
// same content keys — with the gang-eligible jobs actually executed as
// gang lanes (visible in the progress log).
func TestGangSweepByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m := gangMatrix("gang")
	_, plain := gangRunToFile(t, Engine{Parallelism: 2}, m, filepath.Join(dir, "plain.jsonl"))

	var progress bytes.Buffer
	rs, ganged := gangRunToFile(t, Engine{Parallelism: 2, GangWidth: 8, Progress: &progress},
		m, filepath.Join(dir, "gang.jsonl"))
	if !bytes.Equal(plain, ganged) {
		t.Fatalf("ganged sweep output differs from plain sweep:\n--- plain ---\n%s--- gang ---\n%s", plain, ganged)
	}
	if rs.Executed != 8 {
		t.Fatalf("executed %d jobs, want 8", rs.Executed)
	}
	if got := strings.Count(progress.String(), "gang  "); got != 4 {
		t.Fatalf("progress shows %d gang completions, want 4 (the Alloy seed sweep):\n%s", got, progress.String())
	}
}

// TestGangChaosFallsBackToSingles: a panicking gang must not lose or
// corrupt any job — the engine retries its members as independent
// supervised jobs, and the sweep's output converges byte-identically
// to the no-gang golden run.
func TestGangChaosFallsBackToSingles(t *testing.T) {
	dir := t.TempDir()
	m := gangMatrix("chaos")
	_, golden := gangRunToFile(t, Engine{Parallelism: 2}, m, filepath.Join(dir, "golden.jsonl"))

	// The gang attempt dies mid-flight; its members then rerun as
	// singles through the same runner, the engine's one seam.
	var gangs atomic.Int32
	chaos := func(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
		if len(jobs) > 1 && gangs.Add(1) == 1 {
			panic("injected gang fault")
		}
		return Simulate(ctx, jobs)
	}
	var progress bytes.Buffer
	rs, got := gangRunToFile(t,
		Engine{Parallelism: 2, GangWidth: 8, JobRunner: chaos, Progress: &progress},
		m, filepath.Join(dir, "chaos.jsonl"))
	if !bytes.Equal(golden, got) {
		t.Fatalf("chaos sweep output diverged from golden:\n--- golden ---\n%s--- chaos ---\n%s", golden, got)
	}
	if rs.Executed != 8 {
		t.Fatalf("executed %d jobs, want 8", rs.Executed)
	}
	if !strings.Contains(progress.String(), "retrying as independent jobs") {
		t.Fatalf("progress log never reported the gang fallback:\n%s", progress.String())
	}
}

// TestGangResumeByteIdentical: checkpoint/resume keeps operating per
// job under ganging — a truncated sink resumed with ganging enabled
// completes the file byte-identically, serving the on-disk prefix from
// cache and running only the remainder (as a partial-width gang).
func TestGangResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	m := gangMatrix("resume")
	e := Engine{Parallelism: 2, GangWidth: 8}
	_, full := gangRunToFile(t, e, m, filepath.Join(dir, "full.jsonl"))

	lines := bytes.SplitAfter(full, []byte("\n"))
	partialPath := filepath.Join(dir, "partial.jsonl")
	partial := append([]byte{}, bytes.Join(lines[:3], nil)...)
	partial = append(partial, []byte(`{"id":"torn`)...)
	if err := os.WriteFile(partialPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	sink, err := OpenSink(partialPath, true)
	if err != nil {
		t.Fatal(err)
	}
	e.Sink = sink
	rs, err := e.Run(context.Background(), m)
	sink.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Cached != 3 || rs.Executed != 5 {
		t.Fatalf("resume cached %d / executed %d, want 3/5", rs.Cached, rs.Executed)
	}
	resumed, err := os.ReadFile(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full) {
		t.Fatalf("ganged resume differs from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", full, resumed)
	}
}

// TestGangGrouping pins the queue-building rules: ineligible jobs stay
// singles and eligible jobs group up to the width cap.
func TestGangGrouping(t *testing.T) {
	m := gangMatrix("group")
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	widths := func(q *jobQueue) (out []int) {
		for _, g := range q.groups {
			out = append(out, len(g))
		}
		return out
	}
	pending := make([]int, len(jobs))
	for i := range pending {
		pending[i] = i
	}
	got := widths(newJobQueue(jobs, pending, 8))
	// 4 Alloy jobs form one gang; 4 Banshee jobs stay singles. The
	// enumeration interleaves schemes within each seed, so expect one
	// 4-group and four 1-groups.
	var gangs, singles int
	for _, w := range got {
		switch w {
		case 4:
			gangs++
		case 1:
			singles++
		default:
			t.Fatalf("unexpected group width %d in %v", w, got)
		}
	}
	if gangs != 1 || singles != 4 {
		t.Fatalf("group widths %v: want one 4-wide gang and four singles", got)
	}
	// Width 2 caps the Alloy sweep into two 2-wide gangs.
	if got := widths(newJobQueue(jobs, pending, 2)); len(got) != 6 {
		t.Fatalf("width-2 grouping produced %v, want 6 groups", got)
	}
}

// TestGangMSHRStallsMatchSessions: Observe's fold adds every gang
// lane's own stalls, so a metered ganged sweep reports the same MSHR stall total
// as the unganged sweep — the sum of each job's stand-alone
// MSHRStalls().
func TestGangMSHRStallsMatchSessions(t *testing.T) {
	m := gangMatrix("mshr")
	m.Base.MSHRs = 2
	jobs, err := m.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, j := range jobs {
		sess, err := sim.NewSessionConfig(j.Config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		stalls, _ := sess.MSHRStalls()
		want += stalls
	}
	if want == 0 {
		t.Fatal("MSHRs=2 sweep never stalled; the comparison would be vacuous")
	}
	for _, width := range []int{0, 8} {
		r := obs.NewRegistry()
		if _, err := (Engine{Parallelism: 2, GangWidth: width, Metrics: r}).Run(context.Background(), m); err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		if got := uint64(snap["banshee_mshr_stalls_total"]); got != want {
			t.Errorf("GangWidth %d: banshee_mshr_stalls_total = %d, want %d (sum over sessions)", width, got, want)
		}
		if width > 1 && snap["banshee_gang_lanes_total"] == 0 {
			t.Errorf("GangWidth %d: sweep ran no gang lanes", width)
		}
	}
}
