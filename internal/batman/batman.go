// Package batman implements the bandwidth-balancing extension evaluated
// in §5.4.2, after BATMAN [Chou et al., 2015]: when the in-package DRAM
// carries more than a target share (80%) of total DRAM traffic, some
// read hits are deliberately served from off-package DRAM instead, so
// both memories' bandwidth is put to work. The mechanism wraps any
// mc.Scheme; it adapts a redirect probability from the observed traffic
// ratio over a sliding window.
//
// Redirection applies only to clean read hits. The paper's Banshee is
// inclusive — off-package memory always holds a (possibly stale only if
// dirty) copy — so redirecting clean reads is safe; writes and dirty
// data keep going to the cache.
package batman

import (
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/stats"
	"banshee/internal/util"
)

// The balancer's fixed tuning: redirection ramps up while the
// in-package DRAM carries more than targetRatio (the paper's 80%) of
// the traffic, the probability adapts once per windowBytes of traffic,
// and maxRedirect caps it.
const (
	targetRatio = 0.8
	windowBytes = 4 << 20
	maxRedirect = 0.5
)

// Config seeds the balancer.
type Config struct {
	Seed uint64
}

// Balancer wraps a scheme with BATMAN-style access steering.
type Balancer struct {
	inner  mc.Scheme
	rng    *util.RNG
	inB    uint64
	offB   uint64
	prob   float64
	redirs uint64
}

// New wraps inner with a balancer.
func New(inner mc.Scheme, cfg Config) *Balancer {
	return &Balancer{inner: inner, rng: util.NewRNG(cfg.Seed ^ 0xBA7)}
}

// Name implements mc.Scheme.
func (b *Balancer) Name() string { return b.inner.Name() + "+BATMAN" }

// Access implements mc.Scheme.
func (b *Balancer) Access(req mem.Request) mc.Result {
	res := b.inner.Access(req)
	// Steering: flip a clean read hit's critical data fetch off-package.
	if res.Hit && !req.Eviction && !req.Write && b.prob > 0 && b.rng.Bool(b.prob) {
		for i := range res.Ops {
			op := &res.Ops[i]
			if op.Target == mem.InPackage && op.Critical && op.Class == mem.ClassHitData && !op.Write {
				op.Target = mem.OffPackage
				b.redirs++
				break
			}
		}
	}
	for _, op := range res.Ops {
		if op.Target == mem.InPackage {
			b.inB += uint64(op.Bytes)
		} else {
			b.offB += uint64(op.Bytes)
		}
	}
	if b.inB+b.offB >= windowBytes {
		b.adapt()
	}
	return res
}

func (b *Balancer) adapt() {
	total := b.inB + b.offB
	if total == 0 {
		return
	}
	ratio := float64(b.inB) / float64(total)
	const step = 0.05
	if ratio > targetRatio {
		b.prob += step
	} else {
		b.prob -= step
	}
	if b.prob < 0 {
		b.prob = 0
	}
	if b.prob > maxRedirect {
		b.prob = maxRedirect
	}
	b.inB, b.offB = 0, 0
}

// FillStats implements mc.Scheme.
func (b *Balancer) FillStats(s *stats.Sim) { b.inner.FillStats(s) }

// RedirectProb returns the current steering probability (tests).
func (b *Balancer) RedirectProb() float64 { return b.prob }

// Redirected returns how many hits were steered off-package (tests).
func (b *Balancer) Redirected() uint64 { return b.redirs }
