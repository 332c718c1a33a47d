// Package trace generates the deterministic synthetic workloads that
// stand in for the paper's benchmark suite (SPEC CPU2006 subset + the
// graph-analytics suite of [29], §5.1.2). Real SPEC binaries and pin
// traces are unavailable here, so each benchmark is modeled as a
// parametric reference stream whose page-level properties — footprint,
// memory intensity, spatial locality (lines touched per page visit),
// temporal skew (Zipf page popularity), streaming fraction, and write
// ratio — are set to reproduce the qualitative behavior the paper
// reports for that benchmark (e.g. lbm streams whole pages with little
// reuse; omnetpp/milc have poor spatial locality; graph workloads have
// power-law page reuse). DESIGN.md §5 documents this substitution.
//
// A Workload is a set of per-core event streams. Events are memory
// references at cache-line granularity separated by a number of
// non-memory instructions; the simulator replays them through the SRAM
// hierarchy, so DRAM-level behavior emerges from the modeled caches
// rather than being baked into the trace.
//
// Workload construction rides the shared substrate caches: Zipf alias
// tables are cached process-wide by (support, exponent) in util, and
// kernel-workload graphs by their full seed-keyed config in graph, so
// repeated runs (sweeps, tests, benchmarks) regenerate neither. Only
// the cheap per-run state — RNG streams, cursors, kernel walkers — is
// built per Workload.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"banshee/internal/errs"
	"banshee/internal/graph"
	"banshee/internal/mem"
	"banshee/internal/util"
)

// Event is one memory reference in a core's stream.
type Event struct {
	Gap   int // non-memory instructions preceding this reference
	Addr  mem.Addr
	Write bool
}

// Profile parameterizes one benchmark's reference stream.
type Profile struct {
	Name string

	// FootprintMB is the resident data size. For Shared workloads this
	// is the total footprint; for multiprogrammed SPEC workloads it is
	// per instance.
	FootprintMB int

	// MemRatio is the fraction of instructions that reference memory
	// (beyond the registers/L0 the generator abstracts away). It sets
	// bytes-per-instruction intensity.
	MemRatio float64

	// StreamFrac of page visits walk the footprint sequentially; the
	// rest pick a page by Zipf popularity with exponent ZipfS.
	StreamFrac float64
	ZipfS      float64

	// SpatialLines is the mean number of consecutive lines touched per
	// page visit (1 = pointer-chasing, 64 = whole 4 KB page).
	SpatialLines int

	// RevisitFrac is the probability a non-streaming visit re-touches
	// the previously visited page (short-term temporal locality that
	// upper-level caches absorb).
	RevisitFrac float64

	// WriteFrac of references are stores.
	WriteFrac float64

	// Shared marks multithreaded workloads (graph suite): all cores
	// reference one address space. Unshared profiles give each core a
	// private region (multiprogrammed SPEC).
	Shared bool
}

// The benchmark roster of §5.1.2. Parameters are calibrated to the
// paper's qualitative descriptions (see package comment); footprints are
// stated for the paper-scale 1 GB DRAM cache and are scaled down
// together with the cache by the experiment configs.
var profiles = map[string]Profile{
	// Graph analytics (multithreaded, shared address space). The paper
	// singles these out as the key targets: very high traffic, power-law
	// vertex reuse, large footprints.
	"pagerank":  {Name: "pagerank", FootprintMB: 6144, MemRatio: 0.117, StreamFrac: 0.30, ZipfS: 1.00, SpatialLines: 4, RevisitFrac: 0.10, WriteFrac: 0.15, Shared: true},
	"tri_count": {Name: "tri_count", FootprintMB: 4096, MemRatio: 0.099, StreamFrac: 0.35, ZipfS: 0.90, SpatialLines: 6, RevisitFrac: 0.15, WriteFrac: 0.05, Shared: true},
	"graph500":  {Name: "graph500", FootprintMB: 6144, MemRatio: 0.108, StreamFrac: 0.20, ZipfS: 1.05, SpatialLines: 3, RevisitFrac: 0.10, WriteFrac: 0.20, Shared: true},
	"sgd":       {Name: "sgd", FootprintMB: 3072, MemRatio: 0.078, StreamFrac: 0.40, ZipfS: 0.85, SpatialLines: 8, RevisitFrac: 0.20, WriteFrac: 0.30, Shared: true},
	"lsh":       {Name: "lsh", FootprintMB: 2048, MemRatio: 0.045, StreamFrac: 0.50, ZipfS: 0.80, SpatialLines: 10, RevisitFrac: 0.25, WriteFrac: 0.10, Shared: true},

	// SPEC CPU2006 subset (per-instance footprints; 16 instances run in
	// the homogeneous experiments).
	//
	// lbm: near-perfect spatial locality, whole pages streamed with few
	// accesses per page before eviction — the pathology where
	// replace-on-every-miss schemes beat selective caching (Fig. 4).
	"lbm": {Name: "lbm", FootprintMB: 400, MemRatio: 0.114, StreamFrac: 0.96, ZipfS: 0.20, SpatialLines: 56, RevisitFrac: 0.02, WriteFrac: 0.45},
	// bwaves: large streaming solver with some reuse.
	"bwaves": {Name: "bwaves", FootprintMB: 380, MemRatio: 0.090, StreamFrac: 0.75, ZipfS: 0.55, SpatialLines: 24, RevisitFrac: 0.10, WriteFrac: 0.25},
	// mcf: pointer-chasing over a large graph, high intensity, skewed
	// reuse that rewards associativity.
	"mcf": {Name: "mcf", FootprintMB: 420, MemRatio: 0.108, StreamFrac: 0.10, ZipfS: 0.95, SpatialLines: 2, RevisitFrac: 0.15, WriteFrac: 0.10},
	// omnetpp: discrete-event simulator; poor spatial locality, page
	// fills are mostly wasted (hurts Unison/TDC).
	"omnetpp": {Name: "omnetpp", FootprintMB: 300, MemRatio: 0.066, StreamFrac: 0.05, ZipfS: 0.80, SpatialLines: 1, RevisitFrac: 0.20, WriteFrac: 0.25},
	// libquantum: repeated sequential sweeps over one large vector —
	// full spatial locality and regular reuse.
	"libquantum": {Name: "libquantum", FootprintMB: 340, MemRatio: 0.099, StreamFrac: 0.98, ZipfS: 0.10, SpatialLines: 48, RevisitFrac: 0.02, WriteFrac: 0.30},
	// gcc: modest footprint and intensity, mixed pattern.
	"gcc": {Name: "gcc", FootprintMB: 90, MemRatio: 0.036, StreamFrac: 0.40, ZipfS: 0.80, SpatialLines: 6, RevisitFrac: 0.30, WriteFrac: 0.20},
	// milc: lattice QCD with scattered accesses, poor spatial locality,
	// high intensity (hurts page-granularity fills).
	"milc": {Name: "milc", FootprintMB: 300, MemRatio: 0.096, StreamFrac: 0.15, ZipfS: 0.30, SpatialLines: 2, RevisitFrac: 0.05, WriteFrac: 0.20},
	// soplex: sparse LP solver, mixed streaming/irregular.
	"soplex": {Name: "soplex", FootprintMB: 250, MemRatio: 0.081, StreamFrac: 0.50, ZipfS: 0.75, SpatialLines: 8, RevisitFrac: 0.15, WriteFrac: 0.15},
	// Mix-only members.
	"gems":   {Name: "gems", FootprintMB: 340, MemRatio: 0.081, StreamFrac: 0.60, ZipfS: 0.60, SpatialLines: 16, RevisitFrac: 0.10, WriteFrac: 0.25},
	"bzip2":  {Name: "bzip2", FootprintMB: 110, MemRatio: 0.042, StreamFrac: 0.55, ZipfS: 0.70, SpatialLines: 10, RevisitFrac: 0.25, WriteFrac: 0.20},
	"leslie": {Name: "leslie", FootprintMB: 160, MemRatio: 0.078, StreamFrac: 0.70, ZipfS: 0.50, SpatialLines: 20, RevisitFrac: 0.10, WriteFrac: 0.30},
	"cactus": {Name: "cactus", FootprintMB: 180, MemRatio: 0.063, StreamFrac: 0.65, ZipfS: 0.55, SpatialLines: 18, RevisitFrac: 0.10, WriteFrac: 0.25},
}

// Mixes of Table 4 (each entry ×2 fills 16 cores).
var mixes = map[string][]string{
	"mix1": {"libquantum", "mcf", "soplex", "milc", "bwaves", "lbm", "omnetpp", "gcc"},
	"mix2": {"libquantum", "mcf", "soplex", "milc", "lbm", "omnetpp", "gems", "bzip2"},
	"mix3": {"mcf", "soplex", "milc", "bwaves", "gcc", "lbm", "leslie", "cactus"},
}

// Names returns the 16 workload names of the evaluation (Fig. 4's
// x-axis) in the paper's display order.
func Names() []string {
	return []string{
		"pagerank", "tri_count", "graph500", "sgd", "lsh",
		"bwaves", "lbm", "mcf", "omnetpp", "libquantum", "gcc", "milc", "soplex",
		"mix1", "mix2", "mix3",
	}
}

// GraphNames returns the graph-suite subset (used by §5.4.1 large pages).
func GraphNames() []string {
	return []string{"pagerank", "tri_count", "graph500", "sgd", "lsh"}
}

// Profiles returns a copy of the profile for name, if it exists.
func Profiles(name string) (Profile, bool) {
	p, ok := profiles[name]
	return p, ok
}

// coreGen produces one core's stream.
type coreGen struct {
	prof     Profile
	rng      *util.RNG
	zipf     *util.Zipf
	base     mem.Addr // region base (0 for shared workloads)
	pages    uint64   // region size in 4 KB pages
	permMul  uint64   // odd multiplier spreading Zipf ranks over pages
	cursor   uint64   // streaming page cursor
	curLine  mem.Addr // current line within an in-progress run
	runLeft  int
	lastPage uint64
	gapMean  float64
}

// Workload is a full machine workload: one stream per core.
type Workload struct {
	name   string
	cores  []coreGen
	shared bool

	// kernels, when non-nil, replaces the parametric per-core streams
	// with graph-kernel-derived streams ("<name>_kernel" workloads).
	kernels   []graph.Kernel
	kernelFP  uint64
	kernelGap float64
}

// Option tweaks workload construction.
type Option func(*options)

type options struct {
	scale     float64 // footprint scale factor
	memRatioX float64 // intensity multiplier
}

// WithScale scales all footprints by f (used to shrink experiments
// proportionally with the DRAM-cache size; see DESIGN.md §3).
func WithScale(f float64) Option {
	return func(o *options) { o.scale = f }
}

// WithIntensity multiplies every profile's MemRatio by f.
func WithIntensity(f float64) Option {
	return func(o *options) { o.memRatioX = f }
}

// New builds the named workload for the given core count. Valid names
// are Names() plus any single profile name. The stream is fully
// determined by (name, cores, seed, options).
func New(name string, cores int, seed uint64, opts ...Option) (*Workload, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("trace: core count must be positive, got %d", cores)
	}
	o := options{scale: 1, memRatioX: 1}
	for _, f := range opts {
		f(&o)
	}
	if members, ok := mixes[name]; ok {
		return newMix(name, members, cores, seed, o)
	}
	if kernel, ok := strings.CutSuffix(name, "_kernel"); ok {
		return newKernelWorkload(name, kernel, cores, seed, o)
	}
	p, ok := profiles[name]
	if !ok {
		return nil, fmt.Errorf("trace: %w %q (valid: %s)",
			errs.ErrUnknownWorkload, name, strings.Join(ValidNames(), ", "))
	}
	w := &Workload{name: name, shared: p.Shared}
	root := util.NewRNG(seed ^ hashName(name))
	if p.Shared {
		pages := footprintPages(p, o)
		for c := 0; c < cores; c++ {
			g := makeGen(p, o, root.Fork(), 0, pages)
			// Cores share the popularity distribution (the alias table
			// is cached by (n, s)) but draw from per-core RNG streams:
			// a core's stream must depend only on (name, cores, seed),
			// never on the order cores are polled in — the replay
			// contract trace capture relies on (see internal/workload).
			g.zipf = util.NewZipf(root.Fork(), zipfSupport(pages), p.ZipfS)
			// Spread streaming cursors so threads cover different parts,
			// as parallel graph kernels do.
			g.cursor = pages * uint64(c) / uint64(cores)
			w.cores = append(w.cores, g)
		}
	} else {
		for c := 0; c < cores; c++ {
			pages := footprintPages(p, o)
			base := regionBase(c)
			g := makeGen(p, o, root.Fork(), base, pages)
			g.zipf = util.NewZipf(root.Fork(), zipfSupport(pages), p.ZipfS)
			w.cores = append(w.cores, g)
		}
	}
	return w, nil
}

func newMix(name string, members []string, cores int, seed uint64, o options) (*Workload, error) {
	w := &Workload{name: name}
	root := util.NewRNG(seed ^ hashName(name))
	for c := 0; c < cores; c++ {
		p, ok := profiles[members[c%len(members)]]
		if !ok {
			return nil, fmt.Errorf("trace: mix %q references unknown profile %q", name, members[c%len(members)])
		}
		pages := footprintPages(p, o)
		g := makeGen(p, o, root.Fork(), regionBase(c), pages)
		g.zipf = util.NewZipf(root.Fork(), zipfSupport(pages), p.ZipfS)
		w.cores = append(w.cores, g)
	}
	return w, nil
}

// regionBase gives core c's private address-space region. Regions are
// spaced 1 TB apart so footprint scaling never overlaps them.
func regionBase(c int) mem.Addr {
	return mem.Addr(uint64(c+1) << 40)
}

func footprintPages(p Profile, o options) uint64 {
	pages := uint64(float64(float64(p.FootprintMB)*o.scale)) * (1 << 20) / mem.PageBytes // rounded: no FMA
	if pages < 16 {
		pages = 16
	}
	return pages
}

// zipfSupport bounds the Zipf table size; ranks beyond the support are
// folded over the page range by the multiplicative permutation.
func zipfSupport(pages uint64) int {
	const maxSupport = 1 << 17
	if pages < maxSupport {
		return int(pages)
	}
	return maxSupport
}

func makeGen(p Profile, o options, rng *util.RNG, base mem.Addr, pages uint64) coreGen {
	ratio := p.MemRatio * o.memRatioX
	if ratio <= 0 {
		ratio = 0.01
	}
	return coreGen{
		prof:    p,
		rng:     rng,
		base:    base,
		pages:   pages,
		permMul: 0x9E3779B97F4A7C15 | 1,
		gapMean: 1/ratio - 1,
	}
}

// newKernelWorkload builds a graph-kernel-derived workload: a shared
// synthetic graph sized from the matching parametric profile's
// footprint, with one kernel instance per core. These are the
// higher-fidelity cross-check variants of the graph suite (see package
// comment and DESIGN.md §5).
func newKernelWorkload(name, kernel string, cores int, seed uint64, o options) (*Workload, error) {
	p, ok := profiles[kernel]
	if !ok || !p.Shared {
		return nil, fmt.Errorf("trace: no graph profile behind %q", name)
	}
	// Size the graph so its CSR footprint matches the profile's scaled
	// footprint: span ≈ (3V + E + 1) words, E = 8V ⇒ V ≈ bytes/(11·8).
	bytes := float64(p.FootprintMB) * o.scale * (1 << 20)
	vertices := int(bytes / (11 * 8))
	if vertices < 4096 {
		vertices = 4096
	}
	g := graph.New(graph.Config{
		Vertices:  vertices,
		AvgDegree: 8,
		Skew:      p.ZipfS,
		Seed:      seed ^ hashName(name),
	})
	w := &Workload{name: name, shared: true, kernelFP: g.FootprintBytes()}
	ratio := p.MemRatio * o.memRatioX
	if ratio <= 0 {
		ratio = 0.01
	}
	w.kernelGap = 1/ratio - 1
	for c := 0; c < cores; c++ {
		k, err := graph.NewKernel(kernel, g, c, cores, seed+uint64(c))
		if err != nil {
			return nil, err
		}
		w.kernels = append(w.kernels, k)
	}
	return w, nil
}

// KernelNames lists the graph-kernel workload variants.
func KernelNames() []string {
	out := make([]string, 0, len(GraphNames()))
	for _, n := range GraphNames() {
		out = append(out, n+"_kernel")
	}
	return out
}

// Name returns the workload name.
func (w *Workload) Name() string { return w.name }

// Cores returns the number of per-core streams.
func (w *Workload) Cores() int {
	if w.kernels != nil {
		return len(w.kernels)
	}
	return len(w.cores)
}

// Shared reports whether all cores share one address space.
func (w *Workload) Shared() bool { return w.shared }

// Footprint returns the total footprint in bytes across all regions.
func (w *Workload) Footprint() uint64 {
	if w.kernels != nil {
		return w.kernelFP
	}
	if w.shared {
		return w.cores[0].pages * mem.PageBytes
	}
	var total uint64
	for i := range w.cores {
		total += w.cores[i].pages * mem.PageBytes
	}
	return total
}

// Next produces the next event of core c's stream.
func (w *Workload) Next(c int) Event {
	if w.kernels != nil {
		r := w.kernels[c].Next()
		// Kernel gaps encode relative compute density; rescale them so
		// the workload's overall intensity matches its profile.
		gap := int(float64(r.Gap) * w.kernelGap / 4)
		return Event{Gap: gap, Addr: mem.Addr(r.Addr), Write: r.Write}
	}
	return w.cores[c].next()
}

func (g *coreGen) next() Event {
	// Continue an in-progress spatial run: consecutive lines in a page.
	if g.runLeft > 0 {
		g.runLeft--
		addr := g.curLine
		g.curLine += mem.LineBytes
		return Event{
			Gap:   g.gap(),
			Addr:  addr,
			Write: g.rng.Bool(g.prof.WriteFrac),
		}
	}
	// Start a new page visit.
	var page uint64
	switch {
	case g.rng.Bool(g.prof.StreamFrac):
		page = g.cursor % g.pages
		g.cursor++
	case g.prof.RevisitFrac > 0 && g.rng.Bool(g.prof.RevisitFrac):
		page = g.lastPage
	default:
		rank := uint64(g.zipf.Next())
		// Spread ranks over the page range so hot pages are not
		// physically clustered.
		page = (rank * g.permMul) % g.pages
	}
	g.lastPage = page

	run := g.runLen()
	startLine := 0
	if run < mem.LinesPerPage {
		// Revisits of a page touch mostly the *same* lines: objects sit
		// at fixed offsets within their page. A deterministic,
		// page-dependent start offset models that; a small random
		// fraction of visits wander to model secondary objects.
		span := mem.LinesPerPage - run + 1
		if g.rng.Bool(0.5) {
			startLine = g.rng.Intn(span)
		} else {
			startLine = int((page * 0x9E3779B97F4A7C15 >> 32) % uint64(span))
		}
	}
	g.curLine = g.base + mem.Addr(page*mem.PageBytes) + mem.Addr(startLine*mem.LineBytes)
	g.runLeft = run - 1
	addr := g.curLine
	g.curLine += mem.LineBytes
	return Event{
		Gap:   g.gap(),
		Addr:  addr,
		Write: g.rng.Bool(g.prof.WriteFrac),
	}
}

// runLen draws the number of consecutive lines for a page visit,
// jittered ±50% around the profile's SpatialLines and clamped to a page.
func (g *coreGen) runLen() int {
	n := g.prof.SpatialLines
	if n <= 1 {
		return 1
	}
	lo := (n + 1) / 2
	r := lo + g.rng.Intn(n)
	if r > mem.LinesPerPage {
		r = mem.LinesPerPage
	}
	return r
}

// gap draws the non-memory instruction gap (exponential around gapMean).
func (g *coreGen) gap() int {
	if g.gapMean <= 0 {
		return 0
	}
	u := g.rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	return int(-math.Log(u) * g.gapMean)
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AllProfiles returns all registered profile names, sorted (diagnostic).
func AllProfiles() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidNames returns every name New accepts — profiles, mixes, and
// graph-kernel variants — sorted. Unknown-workload errors cite it.
func ValidNames() []string {
	out := make([]string, 0, len(profiles)+len(mixes)+len(GraphNames()))
	for n := range profiles {
		out = append(out, n)
	}
	for n := range mixes {
		out = append(out, n)
	}
	out = append(out, KernelNames()...)
	sort.Strings(out)
	return out
}

// Known reports whether New would accept name.
func Known(name string) bool {
	if _, ok := profiles[name]; ok {
		return true
	}
	if _, ok := mixes[name]; ok {
		return true
	}
	if kernel, ok := strings.CutSuffix(name, "_kernel"); ok {
		if p, ok := profiles[kernel]; ok && p.Shared {
			return true
		}
	}
	return false
}
