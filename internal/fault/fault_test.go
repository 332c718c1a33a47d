package fault_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"banshee/internal/fault"
	"banshee/internal/runner"
	"banshee/internal/stats"
	"banshee/internal/trace"
	"banshee/internal/tracefile"
	"banshee/internal/workload"
)

// keyWithMode scans for a subject key that draws the wanted mode under
// the injector — deterministic victim selection for the unit tests.
func keyWithMode(t *testing.T, in *fault.Injector, want fault.Mode) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if in.ModeFor(key) == want {
			return key
		}
	}
	t.Fatalf("no key draws mode %s in 10k probes", want)
	return ""
}

// TestModeForDeterministic: fault decisions are a pure function of
// (plan seed, key) — same inputs, same mode, on any machine — and the
// drawn rates land near the plan's over many keys.
func TestModeForDeterministic(t *testing.T) {
	p := fault.Plan{Seed: 7, PanicRate: 0.1, ErrRate: 0.2, StallRate: 0.1, ShortRate: 0.1}
	a, b := fault.New(p), fault.New(p)
	counts := map[fault.Mode]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("job-%d", i)
		m := a.ModeFor(key)
		if m != b.ModeFor(key) {
			t.Fatalf("key %s: two injectors with one plan disagree", key)
		}
		counts[m]++
	}
	for _, c := range []struct {
		mode fault.Mode
		rate float64
	}{{fault.Panic, 0.1}, {fault.Err, 0.2}, {fault.Stall, 0.1}, {fault.Short, 0.1}, {fault.None, 0.5}} {
		got := float64(counts[c.mode]) / n
		if got < c.rate-0.03 || got > c.rate+0.03 {
			t.Errorf("mode %s drawn at %.3f, plan says %.2f", c.mode, got, c.rate)
		}
	}
	// A different seed must select different victims.
	c := fault.New(fault.Plan{Seed: 8, PanicRate: 0.1, ErrRate: 0.2, StallRate: 0.1, ShortRate: 0.1})
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("job-%d", i)
		if a.ModeFor(key) != c.ModeFor(key) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("changing the plan seed changed no decisions")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := fault.ParsePlan("panic=0.05,err=0.1,stall=0.2,short=0.3,stallms=2.5,after=64,attempts=2,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	want := fault.Plan{Seed: 9, PanicRate: 0.05, ErrRate: 0.1, StallRate: 0.2, ShortRate: 0.3,
		Stall: 2500 * time.Microsecond, FailAttempts: 2, FaultAfter: 64}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p, err := fault.ParsePlan(""); err != nil || p != (fault.Plan{}) {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"panic", "panic=2", "panic=x", "stallms=-1", "after=0", "attempts=-1", "seed=x", "bogus=1",
		"panic=NaN", "stall=NaN", "stallms=NaN", "stallms=Inf", "stallms=1e300"} {
		if _, err := fault.ParsePlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestRunnerInjection: the JobRunner wrapper turns each drawn mode into
// the matching failure shape, a group faults if any member draws a
// fault, transient budgets expire, and survivors pass through to the
// inner runner untouched.
func TestRunnerInjection(t *testing.T) {
	inner := func(ctx context.Context, jobs []runner.Job) ([]stats.Sim, error) {
		sts := make([]stats.Sim, len(jobs))
		for i := range sts {
			sts[i].Cycles = 42
		}
		return sts, nil
	}
	one := func(id string) []runner.Job { return []runner.Job{{ID: id}} }
	in := fault.New(fault.Plan{Seed: 3, PanicRate: 0.2, ErrRate: 0.2, StallRate: 0.2, Stall: time.Microsecond})
	wrapped := in.Runner(inner)

	errKey := keyWithMode(t, in, fault.Err)
	if _, err := wrapped(context.Background(), one(errKey)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err-mode job returned %v, want ErrInjected", err)
	}
	noneKey := keyWithMode(t, in, fault.None)
	group := []runner.Job{{ID: noneKey}, {ID: errKey}}
	if _, err := wrapped(context.Background(), group); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("group with an Err-mode member returned %v, want ErrInjected", err)
	}

	panicKey := keyWithMode(t, in, fault.Panic)
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "injected panic") {
				t.Fatalf("Panic-mode job recovered %v", r)
			}
		}()
		wrapped(context.Background(), one(panicKey))
		t.Fatal("Panic-mode job returned normally")
	}()

	for _, key := range []string{keyWithMode(t, in, fault.Stall), noneKey} {
		sts, err := wrapped(context.Background(), one(key))
		if err != nil || sts[0].Cycles != 42 {
			t.Fatalf("key %s (mode %s): got (%v, %v), want inner's result", key, in.ModeFor(key), sts, err)
		}
	}

	// A stalled job must still honor cancellation.
	slow := fault.New(fault.Plan{Seed: 3, StallRate: 1, Stall: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := slow.Runner(inner)(ctx, one("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stall returned %v", err)
	}

	// Transient plans fault exactly FailAttempts times per key.
	tr := fault.New(fault.Plan{Seed: 3, ErrRate: 1, FailAttempts: 2})
	trKey := "transient"
	trw := tr.Runner(inner)
	for attempt := 1; attempt <= 2; attempt++ {
		if _, err := trw(context.Background(), one(trKey)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("attempt %d: want injected error, got %v", attempt, err)
		}
	}
	if sts, err := trw(context.Background(), one(trKey)); err != nil || sts[0].Cycles != 42 {
		t.Fatalf("attempt 3 past transient budget: got (%v, %v)", sts, err)
	}
}

var chaosCfg = workload.Config{Cores: 2, Seed: 5, Scale: 1e-4, Intensity: 1}

// TestFaultWorkloadErr: the "fault:" workload kind wraps an inner
// source with a latched decode error — the same failure surface a
// corrupt .btrc replay presents to the simulator.
func TestFaultWorkloadErr(t *testing.T) {
	src, err := workload.Open("fault:err=1,after=50:pagerank", chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "pagerank" {
		t.Fatalf("wrapper changed the name to %q", src.Name())
	}
	es, ok := src.(interface{ Err() error })
	if !ok {
		t.Fatal("fault source lacks the Err surface the simulator polls")
	}
	for i := 0; i < 100; i++ {
		src.Next(0)
	}
	if err := es.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("after 100 events: Err() = %v, want latched ErrInjected", err)
	}
	if e := src.Next(0); e != (trace.Event{}) {
		t.Fatal("latched source still emits events")
	}
}

// TestFaultWorkloadPanic: panic mode fires mid-stream, inside whatever
// is driving the source — the engine's supervision is what contains it.
func TestFaultWorkloadPanic(t *testing.T) {
	src, err := workload.Open("fault:panic=1,after=50:pagerank", chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "injected panic") {
			t.Fatalf("recovered %v", r)
		}
	}()
	for i := 0; i < 100; i++ {
		src.Next(0)
	}
	t.Fatal("panic-mode source survived 100 events")
}

func TestFaultWorkloadBadSpecs(t *testing.T) {
	for _, name := range []string{"fault:pagerank", "fault:panic=1:", "fault:panic=2:pagerank", "fault:err=1:nosuchworkload"} {
		if _, err := workload.Open(name, chaosCfg); err == nil {
			t.Errorf("workload %q opened without error", name)
		}
	}
}

// TestSourceUnwrappedWhenClean: keys that draw no source-applicable
// mode get the inner source back, not a wrapper.
func TestSourceUnwrappedWhenClean(t *testing.T) {
	src, err := workload.Open("pagerank", chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(fault.Plan{ShortRate: 1}) // writer-only mode
	if got := in.Source(src, "k"); got != src {
		t.Fatal("Short-mode key wrapped a source")
	}
}

// TestWriterTearAndError: Short mode delivers half the bytes then
// errors — the torn checkpoint tail — and Err mode fails the write
// outright; both wrap ErrInjected.
func TestWriterTearAndError(t *testing.T) {
	var buf bytes.Buffer
	short := fault.New(fault.Plan{ShortRate: 1, FaultAfter: 1})
	w := short.Writer(&buf, "sink")
	n, err := w.Write([]byte("0123456789"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("short write error = %v", err)
	}
	if n != 5 || buf.String() != "01234" {
		t.Fatalf("torn write delivered %d bytes (%q), want half", n, buf.String())
	}
	// The tear fires once; later writes pass through.
	if _, err := w.Write([]byte("ab")); err != nil || !strings.HasSuffix(buf.String(), "ab") {
		t.Fatalf("post-tear write failed: %v (%q)", err, buf.String())
	}

	buf.Reset()
	hard := fault.New(fault.Plan{ErrRate: 1, FaultAfter: 1})
	if _, err := hard.Writer(&buf, "sink").Write([]byte("xyz")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err-mode write error = %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("err-mode write leaked %d bytes", buf.Len())
	}

	// Writer-inapplicable modes return w unwrapped.
	clean := fault.New(fault.Plan{PanicRate: 1})
	if got := clean.Writer(&buf, "k"); got != any(&buf) {
		t.Fatal("panic-mode key wrapped a writer")
	}
}

// TestReaderAtBitFlip is the .btrc corruption contract: a single
// injected bit flip anywhere in the file must surface as an error —
// or, if it lands in bytes the format ignores, leave the replay
// bit-identical. Silent corruption of the event stream is the one
// outcome that must never happen.
func TestReaderAtBitFlip(t *testing.T) {
	src, err := workload.Open("pagerank", chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	const perCore = 1500
	var rec bytes.Buffer
	tw, err := tracefile.NewWriter(&rec, tracefile.Meta{Name: src.Name(), Cores: src.Cores(), Footprint: src.Footprint()})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < perCore; e++ {
		for c := 0; c < src.Cores(); c++ {
			if err := tw.Append(c, src.Next(c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	data := rec.Bytes()

	caught := 0
	const trials = 24
	for seed := uint64(0); seed < trials; seed++ {
		in := fault.New(fault.Plan{Seed: seed, ErrRate: 1})
		fr := in.ReaderAt(bytes.NewReader(data), int64(len(data)), "trace")
		r, err := tracefile.NewReader(fr, int64(len(data)))
		if err != nil {
			caught++ // flip landed in the header or index
			continue
		}
		cleanR, err := tracefile.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		mismatch := false
		for e := 0; e < perCore; e++ {
			for c := 0; c < chaosCfg.Cores; c++ {
				if r.Next(c) != cleanR.Next(c) {
					mismatch = true
				}
			}
		}
		if r.Err() != nil {
			caught++ // flip landed in a chunk; its CRC latched an error
			continue
		}
		if mismatch {
			t.Fatalf("seed %d: bit flip silently altered the replayed events", seed)
		}
	}
	if caught == 0 {
		t.Fatalf("no flip was caught in %d trials (injector not firing?)", trials)
	}
	t.Logf("caught %d/%d injected flips; rest were bit-identical", caught, trials)
}
