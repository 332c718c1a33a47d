package netfault

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"banshee/internal/util"
)

// ProxyPlan configures a chaos Proxy: what fraction of proxied TCP
// connections draw a byte-level fault. Decisions hash (seed,
// connection index), so a proxy run's fault schedule is reproducible.
// Partition windows are driven explicitly via Proxy.Partition — they
// model operator-visible events (a switch rebooting), not per-flow
// randomness.
type ProxyPlan struct {
	// Seed perturbs the per-connection decision hash.
	Seed uint64
	// CutRate is the fraction of connections severed mid-stream after
	// CutAfter forwarded bytes.
	CutRate float64
	// StallRate is the fraction of connections that forward slowly
	// (Stall pause per chunk) — models congestion, exercises
	// response-header and renew deadlines.
	StallRate float64
	// CutAfter is the byte budget before a cut connection dies
	// (default 4096).
	CutAfter int64
	// Stall is the per-chunk pause on stalled connections
	// (default 1ms).
	Stall time.Duration
}

func (p ProxyPlan) cutAfter() int64 {
	if p.CutAfter <= 0 {
		return 4096
	}
	return p.CutAfter
}

func (p ProxyPlan) stall() time.Duration {
	if p.Stall <= 0 {
		return time.Millisecond
	}
	return p.Stall
}

// Proxy is an in-process chaos TCP proxy: it forwards connections to
// a target address, deterministically cutting or stalling a planned
// fraction of them, and supports partition windows during which every
// connection — established and new — dies. It sits between real
// worker and daemon processes in subprocess e2e tests, injecting the
// network failures a unit test cannot.
type Proxy struct {
	ln     net.Listener
	target string
	plan   ProxyPlan

	mu         sync.Mutex
	conns      map[*connPair]struct{}
	partTil    time.Time
	closed     bool
	connIndex  uint64
	cuts       atomic.Uint64
	partitions atomic.Uint64
	refused    atomic.Uint64
}

type connPair struct {
	client, upstream net.Conn
	once             sync.Once
}

func (cp *connPair) closeBoth() {
	cp.once.Do(func() {
		cp.client.Close()
		cp.upstream.Close()
	})
}

// NewProxy starts a chaos proxy on 127.0.0.1 forwarding to target
// (host:port). Close it when done.
func NewProxy(target string, plan ProxyPlan) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("netfault proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, target: target, plan: plan, conns: map[*connPair]struct{}{}}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port) — what the
// client or worker under test should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// CutCount reports how many connections the proxy has severed
// mid-stream.
func (p *Proxy) CutCount() uint64 { return p.cuts.Load() }

// RefusedCount reports how many connections died to partition windows
// (both refused-new and killed-established).
func (p *Proxy) RefusedCount() uint64 { return p.refused.Load() }

// PartitionCount reports how many partition windows have been opened.
func (p *Proxy) PartitionCount() uint64 { return p.partitions.Load() }

// Partition opens a partition window of duration d: every established
// connection is killed now, and new connections are refused until the
// window closes. Models a network partition between the proxy's two
// sides.
func (p *Proxy) Partition(d time.Duration) {
	p.partitions.Add(1)
	p.mu.Lock()
	until := time.Now().Add(d)
	if until.After(p.partTil) {
		p.partTil = until
	}
	pairs := make([]*connPair, 0, len(p.conns))
	for cp := range p.conns {
		pairs = append(pairs, cp)
	}
	p.mu.Unlock()
	for _, cp := range pairs {
		p.refused.Add(1)
		cp.closeBoth()
	}
}

// Close stops the proxy and kills every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	pairs := make([]*connPair, 0, len(p.conns))
	for cp := range p.conns {
		pairs = append(pairs, cp)
	}
	p.mu.Unlock()
	err := p.ln.Close()
	for _, cp := range pairs {
		cp.closeBoth()
	}
	return err
}

func (p *Proxy) partitioned() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.partTil)
}

// faultsFor is the pure per-connection decision: does connection idx
// draw a cut, a stall, or neither. Cumulative-exclusive like
// Transport.ModeFor.
func (p *Proxy) faultsFor(idx uint64) (cut, stall bool) {
	r := util.HashUnit(fmt.Sprintf("proxy|%d|%d", p.plan.Seed, idx))
	if r < p.plan.CutRate {
		return true, false
	}
	r -= p.plan.CutRate
	if r < p.plan.StallRate {
		return false, true
	}
	return false, false
}

func (p *Proxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		idx := p.connIndex
		p.connIndex++
		closed := p.closed
		p.mu.Unlock()
		if closed {
			c.Close()
			return
		}
		if p.partitioned() {
			p.refused.Add(1)
			c.Close()
			continue
		}
		go p.serve(c, idx)
	}
}

func (p *Proxy) serve(client net.Conn, idx uint64) {
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		client.Close()
		return
	}
	cp := &connPair{client: client, upstream: upstream}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		cp.closeBoth()
		return
	}
	p.conns[cp] = struct{}{}
	p.mu.Unlock()
	defer func() {
		cp.closeBoth()
		p.mu.Lock()
		delete(p.conns, cp)
		p.mu.Unlock()
	}()

	cut, stall := p.faultsFor(idx)
	var budget *atomic.Int64
	if cut {
		budget = &atomic.Int64{}
		budget.Store(p.plan.cutAfter())
	}

	done := make(chan struct{}, 2)
	go p.pipe(upstream, client, cp, budget, stall, done)
	go p.pipe(client, upstream, cp, budget, stall, done)
	// The first direction to finish (EOF, error, or cut) tears the
	// pair down; the second unblocks on the closed sockets.
	<-done
	cp.closeBoth()
	<-done
}

// pipe forwards src→dst in chunks, charging the shared cut budget and
// pausing on stalled connections. When the budget runs out the whole
// pair dies mid-stream — a torn connection, not a clean shutdown.
func (p *Proxy) pipe(dst, src net.Conn, cp *connPair, budget *atomic.Int64, stall bool, done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	buf := make([]byte, 16*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if budget != nil && budget.Add(int64(-n)) <= 0 {
				p.cuts.Add(1)
				cp.closeBoth()
				return
			}
			if stall {
				time.Sleep(p.plan.stall())
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
