package batman

import (
	"testing"

	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
)

// windowAccesses is how many line accesses fill one adaptation window.
const windowAccesses = windowBytes / mem.LineBytes

// hitScheme always hits in-package (CacheOnly-like), generating the
// lopsided traffic BATMAN is meant to balance. Each access also moves
// fillBytes of in-package write traffic BATMAN cannot steer. Like a
// real scheme it reuses one Ops slice across accesses.
type hitScheme struct {
	fillBytes int
	ops       []mem.Op
}

func (*hitScheme) Name() string { return "hit" }
func (h *hitScheme) Access(req mem.Request) mc.Result {
	h.ops = append(h.ops[:0], mem.Op{
		Target: mem.InPackage, Addr: req.Addr, Bytes: 64,
		Class: mem.ClassHitData, Critical: true,
	})
	if h.fillBytes > 0 {
		h.ops = append(h.ops, mem.Op{
			Target: mem.InPackage, Addr: req.Addr, Bytes: h.fillBytes,
			Write: true, Class: mem.ClassReplacement,
		})
	}
	return mc.Result{Hit: true, Ops: h.ops}
}
func (*hitScheme) FillStats(*stats.Sim) {}

func TestNameSuffix(t *testing.T) {
	b := New(&hitScheme{}, Config{Seed: 1})
	if b.Name() != "hit+BATMAN" {
		t.Fatalf("name %q", b.Name())
	}
}

func TestRedirectionRampsUpUnderImbalance(t *testing.T) {
	b := New(&hitScheme{}, Config{Seed: 1})
	for i := 0; i < windowAccesses-1; i++ {
		b.Access(mem.Request{Addr: mem.Addr(i * 64)})
	}
	if b.RedirectProb() != 0 {
		t.Fatalf("redirect probability %v before the first window closed", b.RedirectProb())
	}
	for i := 0; i < 2*windowAccesses; i++ {
		b.Access(mem.Request{Addr: mem.Addr(i * 64)})
	}
	if b.RedirectProb() == 0 {
		t.Fatal("redirect probability never rose despite 100% in-package traffic")
	}
	if b.Redirected() == 0 {
		t.Fatal("no accesses were steered off-package")
	}
}

func TestRedirectedOpsTargetOffPackage(t *testing.T) {
	b := New(&hitScheme{}, Config{Seed: 1})
	var off int
	for i := 0; i < 2*windowAccesses; i++ {
		res := b.Access(mem.Request{Addr: mem.Addr(i * 64)})
		for _, op := range res.Ops {
			if op.Target == mem.OffPackage {
				off += op.Bytes
				if op.Write {
					t.Fatal("redirected a write")
				}
			}
		}
	}
	if off == 0 {
		t.Fatal("no off-package bytes after redirection")
	}
}

func TestNoRedirectionWhenBalanced(t *testing.T) {
	// A scheme already balanced below the target ratio: probability
	// stays at zero.
	balanced := &balancedScheme{}
	b := New(balanced, Config{Seed: 2})
	for i := 0; i < 3*windowAccesses; i++ {
		b.Access(mem.Request{Addr: mem.Addr(i * 64)})
	}
	if b.RedirectProb() != 0 {
		t.Fatalf("redirect probability %v on balanced traffic", b.RedirectProb())
	}
}

type balancedScheme struct {
	flip bool
	ops  []mem.Op
}

func (*balancedScheme) Name() string { return "balanced" }
func (s *balancedScheme) Access(req mem.Request) mc.Result {
	s.flip = !s.flip
	target := mem.InPackage
	if s.flip {
		target = mem.OffPackage
	}
	s.ops = append(s.ops[:0], mem.Op{
		Target: target, Addr: req.Addr, Bytes: 64,
		Class: mem.ClassHitData, Critical: true,
	})
	return mc.Result{Hit: !s.flip, Ops: s.ops}
}
func (*balancedScheme) FillStats(*stats.Sim) {}

func TestEvictionsNeverRedirected(t *testing.T) {
	b := New(&hitScheme{}, Config{Seed: 3})
	// Ramp up the probability first.
	for i := 0; i < 2*windowAccesses; i++ {
		b.Access(mem.Request{Addr: mem.Addr(i * 64)})
	}
	if b.RedirectProb() == 0 {
		t.Fatal("probability did not ramp up")
	}
	for i := 0; i < 5000; i++ {
		res := b.Access(mem.Request{Addr: mem.Addr(i * 64), Write: true, Eviction: true})
		for _, op := range res.Ops {
			if op.Target == mem.OffPackage {
				t.Fatal("eviction redirected off-package")
			}
		}
	}
}

func TestProbabilityCapped(t *testing.T) {
	// 1 KB of unsteerable in-package fill per access keeps the
	// in-package share above the target however many hits are steered,
	// so the probability climbs until the cap holds it.
	const perAccess = 64 + 1024
	b := New(&hitScheme{fillBytes: 1024}, Config{Seed: 4})
	for i := 0; i < 15*windowBytes/perAccess; i++ {
		b.Access(mem.Request{Addr: mem.Addr(i * 64)})
	}
	if p := b.RedirectProb(); p != maxRedirect {
		t.Fatalf("probability %v, want the cap %v", p, maxRedirect)
	}
}
