package sim

import "banshee/internal/mem"

// Prefetcher implements the L2-and-below hardware stream prefetcher the
// paper's §3.2 discusses as a complication for PTE/TLB-based mapping:
// caches below the L1 operate on physical addresses and cannot consult
// the TLB, so Banshee (a) stops prefetches at page boundaries — data
// beyond the boundary is unrelated in physical space — and (b) copies
// the DRAM-cache mapping bits from the triggering access onto every
// prefetch it spawns. (a) is modeled here exactly. (b) needs no model:
// a prefetch stays on its trigger's page, and Banshee reads that page's
// way from its metadata, which the copied bits always equal.
//
// The prefetcher is disabled by default (the paper's evaluation does
// not enable one); cfg.PrefetchDegree > 0 turns it on, and the
// BenchmarkPrefetchAblation bench and examples explore its interaction
// with the schemes.
type Prefetcher struct {
	degree  int
	streams []stream   // per detected stream
	out     []mem.Addr // Observe's result, reused across calls
}

type stream struct {
	lastLine uint64
	conf     int
	valid    bool
	tick     uint64
}

// streamsPerCore bounds the tracking table, like a real 4-entry stream
// detector.
const streamsPerCore = 4

// confidenceThreshold is how many consecutive hits arm the stream.
const confidenceThreshold = 2

// NewPrefetcher builds a stream prefetcher of the given degree
// (lines fetched ahead per trigger).
func NewPrefetcher(degree int) *Prefetcher {
	return &Prefetcher{degree: degree, streams: make([]stream, streamsPerCore)}
}

// Observe feeds one demand access and returns the prefetch addresses to
// issue: up to `degree` next lines, truncated at the page boundary
// (§3.2), so each lies on the triggering access's page and shares its
// DRAM-cache mapping. The slice is scratch reused by the next call.
func (p *Prefetcher) Observe(addr mem.Addr, tick uint64) []mem.Addr {
	line := mem.LineNum(addr)
	// Match an existing stream.
	si := -1
	for i := range p.streams {
		if p.streams[i].valid && line == p.streams[i].lastLine+1 {
			si = i
			break
		}
	}
	if si < 0 {
		// Allocate (LRU) a new tentative stream.
		victim := 0
		for i := range p.streams {
			if !p.streams[i].valid {
				victim = i
				break
			}
			if p.streams[i].tick < p.streams[victim].tick {
				victim = i
			}
		}
		p.streams[victim] = stream{lastLine: line, valid: true, tick: tick}
		return nil
	}
	s := &p.streams[si]
	s.lastLine = line
	s.conf++
	s.tick = tick
	if s.conf < confidenceThreshold {
		return nil
	}
	// Armed: prefetch ahead, stopping at the 4 KB page boundary.
	out := p.out[:0]
	pageEnd := mem.PageAddr(addr) + mem.PageBytes
	for i := 1; i <= p.degree; i++ {
		next := mem.LineBase(line + uint64(i))
		if next >= pageEnd {
			break
		}
		out = append(out, next)
	}
	p.out = out
	return out
}

// issuePrefetches runs the prefetch addresses through L3 and, for L3
// misses, to the memory controller as non-critical reads. Prefetches
// never count toward DRAM-cache hit/miss statistics (they are not
// demand).
func (s *System) issuePrefetches(c *core, addrs []mem.Addr) {
	for _, a := range addrs {
		if hit, ev := s.l3.Access(a, false, uint8(s.pageSize)); hit {
			continue
		} else if ev != nil {
			s.evictToMC(c, ev)
		}
		s.st.Prefetches++
		req := mem.Request{
			Addr: a,
			Core: c.id,
			Size: s.pageSize,
		}
		res := s.scheme.Access(req)
		// Prefetches are bandwidth, not latency: demote every op to the
		// background class and ignore completion times.
		for i := range res.Ops {
			res.Ops[i].Critical = false
		}
		s.executeOps(c, res, c.time)
	}
}
