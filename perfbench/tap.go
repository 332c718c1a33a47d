package main

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"banshee"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/registry"
	"banshee/internal/trace"
	"banshee/internal/workload"
)

// The traced runs observe the simulator only through its public
// registry seams: a workload kind answering "tap:<inner>" names wraps
// the inner source, and a scheme modifier wraps the built scheme. No
// timed run ever selects a tap workload or arms the scheme tap, so the
// timed paths execute exactly what a user's would.

// tapPrefix selects the tapped variant of a workload name.
const tapPrefix = "tap:"

// coreEvent is one captured workload event and the core that drew it.
type coreEvent struct {
	core int32
	ev   trace.Event
}

// capturedReq is one memory-controller request at the scheme boundary,
// with the DRAM ops its Access returned (ops[op0:op1] of the capture).
type capturedReq struct {
	events   uint64 // events the run had drawn when the request was issued
	req      mem.Request
	hit      bool
	op0, op1 int
}

// capture accumulates the boundary streams of one traced session, or —
// with store unset — only counts the events drawn through tap sources.
type capture struct {
	store  bool
	events []coreEvent
	reqs   []capturedReq
	ops    []mem.Op

	mu      sync.Mutex
	sources []*tapSource
}

// eventCount sums the events drawn through every source opened against
// the capture.
func (c *capture) eventCount() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, s := range c.sources {
		n += s.n.Load()
	}
	return n
}

// tapState routes newly opened tap sources and tapped schemes to the
// active capture. Arming the scheme tap makes every scheme non-gang-safe
// (an active modifier voids GangSafe), so it is armed only around
// direct sessions, never around a RunBatch.
var tapState struct {
	mu     sync.Mutex
	cur    *capture
	scheme atomic.Bool
}

// withCapture points tap sources (and, if scheme, tapped schemes) at c
// for the duration of fn.
func withCapture(c *capture, scheme bool, fn func() error) error {
	tapState.mu.Lock()
	tapState.cur = c
	tapState.mu.Unlock()
	tapState.scheme.Store(scheme)
	defer func() {
		tapState.scheme.Store(false)
		tapState.mu.Lock()
		tapState.cur = nil
		tapState.mu.Unlock()
	}()
	return fn()
}

func currentCapture() *capture {
	tapState.mu.Lock()
	defer tapState.mu.Unlock()
	return tapState.cur
}

func init() {
	banshee.RegisterWorkload(banshee.WorkloadDef{
		Kind: "perfbench-tap",
		Open: func(name string, cfg workload.Config) (workload.Source, bool, error) {
			inner, ok := strings.CutPrefix(name, tapPrefix)
			if !ok {
				return nil, false, nil
			}
			src, err := workload.Open(inner, cfg)
			if err != nil {
				return nil, true, err
			}
			c := currentCapture()
			if c == nil {
				c = &capture{}
			}
			t := &tapSource{Source: src, c: c}
			c.mu.Lock()
			c.sources = append(c.sources, t)
			c.mu.Unlock()
			return t, true, nil
		},
	})
	banshee.RegisterSchemeModifier(banshee.SchemeModifier{
		Suffix: "+PERFBENCH-TAP",
		Apply:  func(*registry.Spec) {},
		Active: func(registry.Spec) bool { return tapState.scheme.Load() },
		Wrap: func(inner mc.Scheme, _ registry.Spec, _ registry.Env) (mc.Scheme, error) {
			return &tapScheme{Scheme: inner, c: currentCapture()}, nil
		},
	})
}

// tapSource counts (and, when storing, records) every event drawn.
type tapSource struct {
	workload.Source
	c *capture
	n atomic.Uint64
}

func (t *tapSource) Next(core int) trace.Event {
	ev := t.Source.Next(core)
	t.n.Add(1)
	if t.c.store {
		t.c.events = append(t.c.events, coreEvent{int32(core), ev})
	}
	return ev
}

// Close releases the inner source when it holds resources.
func (t *tapSource) Close() error {
	if c, ok := t.Source.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// tapScheme records each request with the ops its Access returned.
type tapScheme struct {
	mc.Scheme
	c *capture
}

func (t *tapScheme) Access(req mem.Request) mc.Result {
	res := t.Scheme.Access(req)
	if t.c != nil && t.c.store {
		op0 := len(t.c.ops)
		t.c.ops = append(t.c.ops, res.Ops...)
		t.c.reqs = append(t.c.reqs, capturedReq{
			events: uint64(len(t.c.events)), req: req, hit: res.Hit, op0: op0, op1: len(t.c.ops),
		})
	}
	return res
}
