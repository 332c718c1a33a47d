// Package obs is the simulator's observability layer: a dependency-free
// metrics core (counters, gauges, histograms with atomic updates and a
// zero-allocation increment path), a span/event recorder that renders
// Chrome trace_event JSON timelines, HTTP exposition (Prometheus text,
// JSON, expvar-style /debug/vars, net/http/pprof), and a rate-limited
// human-readable progress line.
//
// The design contract, pinned by the repo's zero-alloc and golden-stats
// gates, is that telemetry is observationally free when disabled: every
// instrumented layer (runner.Engine, sim sessions) carries a nil
// registry by default and skips all of this package, so an
// uninstrumented sweep's statistics, allocations, and checkpoint bytes
// are exactly what they were before the layer existed. When enabled,
// metric updates are single atomic operations — safe for the engine's
// worker pool without extending any lock's critical section. The few
// process-wide series (runtime gauges, fault-injection and retry
// tallies) live on the Process registry, which every exposition
// includes.
//
// Series names follow Prometheus conventions ("banshee_jobs_total"),
// optionally with a fixed label set baked into the name
// ("banshee_jobs_total{state=\"done\"}"); series sharing a base name
// form one family in the exposition.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The increment path is
// one atomic add: zero allocations, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64. Set
// and Add are atomic (Add is a CAS loop); neither allocates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta to the gauge.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of every Histogram: power-of-two
// upper bounds 1, 2, 4, ..., 2^62, +Inf. Fixed buckets keep Observe a
// pair of atomic adds with no per-histogram configuration to mismatch
// across a fleet of exporters.
const histBuckets = 64

// Histogram counts uint64 observations into power-of-two buckets
// (upper bounds 1, 2, 4, ..., +Inf) and tracks their sum. Observe is
// two atomic adds: zero allocations, safe for concurrent use. Callers
// pick the unit by convention and encode it in the metric name
// ("..._us" for microseconds, "..._lanes" for widths).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v) // 0 → bucket 0 (le 1), 2^k → bucket k (le 2^k)
	if v != 0 && v&(v-1) == 0 {
		i-- // exact powers of two land in their own bound
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// metric is one registered series: exactly one of the value fields is
// set. fn-backed series are read at exposition time.
type metric struct {
	name, family, help string
	kind               string // "counter", "gauge", "histogram"
	counter            *Counter
	gauge              *Gauge
	hist               *Histogram
	fn                 func() float64
}

// Registry holds named metrics and renders them for exposition.
// Registration methods are idempotent: asking for an existing name
// returns the already-registered metric, so instrumented layers can
// share one registry without coordinating ownership (the batch engine
// registers its set once per run; every job's observer then resolves
// the same counters). Mismatched re-registration (same name, different
// kind) panics — metric names are code, not input.
//
// A Registry value is a view over shared storage: With returns a view
// that bakes an extra label pair into every series name registered
// through it, so one exposition endpoint can carry the same engine
// instrument panel once per sweep ("banshee_jobs_total{state=\"done\",
// sweep=\"9f2c\"}") without the instrumented code knowing about sweeps.
type Registry struct {
	s *regState
	// labels is the rendered label set this view splices into every
	// registered name ("" for the root view).
	labels string
}

// regState is the storage every view of one registry shares.
type regState struct {
	mu     sync.Mutex
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{s: &regState{byName: map[string]*metric{}}}
}

// Process holds the series that belong to the process rather than to
// a run: the runtime gauges, and the tallies a package keeps across
// every run in the binary (fault injections, client retries). A
// package registers its series here once, in a package var; every
// registry's exposition then includes them, so no caller wires them.
var Process = NewRegistry()

// processStart is when the process started, for banshee_uptime_seconds.
var processStart = time.Now()

func init() {
	Process.GaugeFunc("banshee_goroutines", "live goroutines", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	Process.GaugeFunc("banshee_heap_alloc_bytes", "live heap bytes (runtime.MemStats.HeapAlloc)", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	Process.GaugeFunc("banshee_uptime_seconds", "seconds since the process started", func() float64 {
		return time.Since(processStart).Seconds()
	})
}

// With returns a view of the registry that adds `key="value"` to every
// series name registered through it, composing with any labels already
// baked into the name or the view. Views share the registry's storage:
// exposition over any view renders every series.
func (r *Registry) With(key, value string) *Registry {
	pair := fmt.Sprintf("%s=%q", key, value)
	labels := r.labels
	if labels != "" {
		labels += ","
	}
	return &Registry{s: r.s, labels: labels + pair}
}

// spliceLabels merges the view's label set into a series name:
// `a_total` → `a_total{sweep="x"}`, `a_total{state="done"}` →
// `a_total{state="done",sweep="x"}`.
func (r *Registry) spliceLabels(name string) string {
	if r.labels == "" {
		return name
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + r.labels + "}"
	}
	return name + "{" + r.labels + "}"
}

// family is the series' base name: the part before any baked-in label
// set. Series sharing a family share one TYPE/HELP header.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register installs (or returns) the series under name, with the
// view's label set spliced in.
func (r *Registry) register(name, help, kind string) *metric {
	name = r.spliceLabels(name)
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if m, ok := r.s.byName[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, family: family(name), help: help, kind: kind}
	switch kind {
	case "counter":
		m.counter = &Counter{}
	case "gauge":
		m.gauge = &Gauge{}
	case "histogram":
		m.hist = &Histogram{}
	}
	r.s.byName[name] = m
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. help is kept from the first registration.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter").counter
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge").gauge
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, "histogram").hist
}

// GaugeFunc registers a series whose value is read from fn at
// exposition time — for values something else already tracks (queue
// depths, runtime stats). Re-registering an existing name replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, "gauge")
	r.s.mu.Lock()
	m.gauge, m.fn = nil, fn
	r.s.mu.Unlock()
}

// sorted returns the registered series and Process's, sorted by name,
// families contiguous. A name both hold renders once, from r.
func (r *Registry) sorted() []*metric {
	byName := map[string]*metric{}
	for _, s := range []*regState{Process.s, r.s} {
		s.mu.Lock()
		for name, m := range s.byName {
			byName[name] = m
		}
		s.mu.Unlock()
	}
	out := make([]*metric, 0, len(byName))
	for _, m := range byName {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot returns every series' current value keyed by name.
// Histograms contribute "<name>_count" and "<name>_sum". Intended for
// tests and consistency checks, not hot paths.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.sorted() {
		switch {
		case m.fn != nil:
			out[m.name] = m.fn()
		case m.counter != nil:
			out[m.name] = float64(m.counter.Value())
		case m.gauge != nil:
			out[m.name] = m.gauge.Value()
		case m.hist != nil:
			out[m.name+"_count"] = float64(m.hist.Count())
			out[m.name+"_sum"] = float64(m.hist.Sum())
		}
	}
	return out
}
