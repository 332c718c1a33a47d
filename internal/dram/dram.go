// Package dram models DRAM channel timing and bandwidth. Both the
// in-package (HBM-class) and off-package (DDR) DRAMs of the paper's
// system (Table 2) are instances of the same model with different channel
// counts: 128-bit channels at 667 MHz DDR, 10-10-10-24 timing, banked with
// open-row (row-buffer) state. tRAS (the 24) is not modelled: a row
// stays open until an access to another row of its bank closes it.
//
// The model is a busy-until queueing model in CPU cycles: each bank and
// each channel data bus tracks when it next becomes free. An access waits
// for its bank, pays tCAS on a row hit or tRP+tRCD+tCAS on a row miss,
// then occupies the data bus for ceil(bytes/32B) DDR beats. Bandwidth
// contention — the effect the paper shows dominates performance (Fig. 8)
// — emerges from bus occupancy.
package dram

import (
	"fmt"

	"banshee/internal/mem"
)

// The channel design every DRAM of the paper's system shares (Table 2).
// Timings are in DRAM (bus) cycles.
const (
	banksPerChannel = 8
	busBytes        = 16  // bus width in bytes per beat edge (128 bit)
	busMHz          = 667 // I/O clock; DDR transfers on both edges
	tCAS            = 10
	tRCD            = 10
	tRP             = 10
	rowBytes        = 8192 // row-buffer size per bank

	// maxWriteLead bounds (in CPU cycles of bus backlog) how far the
	// background (write/fill) queue may run ahead of the demand stream.
	// When the backlog exceeds this, demand accesses stall until it
	// drains — the read-blocking write-drain of a full write queue.
	// 1000 cycles is a few KB of queued bursts.
	maxWriteLead = 1000
)

// Config describes one DRAM (a set of identical channels). The fields
// are the ones some run varies: the Fig. 8c bandwidth sweep sets
// Channels and the Fig. 8b latency sweep sets LatencyScale.
type Config struct {
	Name     string
	Channels int
	CPUMHz   float64 // core clock, for cycle conversion

	// LatencyScale scales the access-time components (tCAS/tRCD/tRP)
	// without touching bandwidth; used by the Fig. 8b latency sweep.
	LatencyScale float64
}

// OffPackageConfig returns the paper's off-package DRAM: 1 channel,
// 21.3 GB/s peak.
func OffPackageConfig(cpuMHz float64) Config {
	return Config{Name: "off-package", Channels: 1, CPUMHz: cpuMHz, LatencyScale: 1.0}
}

// InPackageConfig returns the paper's in-package DRAM: 4 channels,
// 85 GB/s peak.
func InPackageConfig(cpuMHz float64) Config {
	c := OffPackageConfig(cpuMHz)
	c.Name = "in-package"
	c.Channels = 4
	return c
}

// PeakBandwidthGBs returns the theoretical peak bandwidth in GB/s.
func (c Config) PeakBandwidthGBs() float64 {
	return float64(c.Channels) * busBytes * 2 * busMHz * 1e6 / 1e9
}

func (c Config) validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram %q: channels must be positive, got %d", c.Name, c.Channels)
	case c.CPUMHz <= 0:
		return fmt.Errorf("dram %q: CPU clock must be positive", c.Name)
	case c.LatencyScale <= 0:
		return fmt.Errorf("dram %q: latency scale must be positive, got %v", c.Name, c.LatencyScale)
	}
	return nil
}

// Stats aggregates what the DRAM observed.
type Stats struct {
	Accesses     uint64
	Background   uint64 // accesses in the background (write-drain) class
	RowHits      uint64 // critical accesses only
	RowMisses    uint64 // critical accesses only
	BytesRead    uint64
	BytesWritten uint64
	BusBusy      uint64 // total data-bus occupied CPU cycles, summed over channels
}

type bank struct {
	busyUntil uint64
	openRow   uint64
	rowOpen   bool
}

// channel models one DRAM channel with a two-priority data bus, the
// way FR-FCFS-style controllers treat demand reads versus writebacks
// and fills: critical (demand) transfers queue only behind other
// critical transfers (busCrit); background transfers drain in the gaps
// and queue behind everything (busAll). Total committed bus time is
// tracked by busAll, so bandwidth is conserved; under overload the
// background queue starves first, exactly like a real write queue.
type channel struct {
	busCrit uint64 // backlog seen by critical (demand) transfers
	busAll  uint64 // total committed bus time (all transfers)
	banks   [banksPerChannel]bank
}

// DRAM is a timing model instance. It is not safe for concurrent use;
// the simulator serializes accesses in global time order.
type DRAM struct {
	cfg   Config
	chans []channel
	stats Stats

	// Precomputed CPU-cycle latencies.
	casLat     uint64
	rowMissLat uint64
	ccdLat     uint64 // column-to-column command spacing per bank
	gapLat     uint64 // inter-access bus gap for random (demand) accesses
	cpuPerBus  float64

	// chanMask replaces the per-access modulo when the channel count is
	// a power of two (every shipped configuration); -1 disables.
	chanMask int64
}

// New builds a DRAM from cfg. It panics on invalid configuration: a bad
// config is a programming error in experiment setup, not a runtime
// condition to handle.
func New(cfg Config) *DRAM {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	d := &DRAM{cfg: cfg}
	d.chans = make([]channel, cfg.Channels)
	d.cpuPerBus = cfg.CPUMHz / busMHz
	toCPU := func(busCycles int) uint64 {
		// The product is rounded before the +0.5, so no FMA forms.
		return uint64(float64(float64(busCycles)*d.cpuPerBus*cfg.LatencyScale) + 0.5)
	}
	d.casLat = toCPU(tCAS)
	d.rowMissLat = toCPU(tRP + tRCD + tCAS)
	d.ccdLat = toCPU(2)
	d.gapLat = toCPU(1)
	d.chanMask = -1
	if n := cfg.Channels; n&(n-1) == 0 {
		d.chanMask = int64(n - 1)
	}
	return d
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of accumulated statistics.
func (d *DRAM) Stats() Stats { return d.stats }

// MinTransferBytes is the smallest data transfer (one burst): with a 16 B
// bus and burst length 2 this is 32 B, matching the paper's observation
// that a 64 B line plus tag moves at least 96 B.
func (d *DRAM) MinTransferBytes() int { return busBytes * 2 }

// transferCycles returns the CPU cycles the data bus is occupied moving n
// bytes (rounded up to whole 32 B bursts).
func (d *DRAM) transferCycles(n int) uint64 {
	burst := d.MinTransferBytes()
	bursts := (n + burst - 1) / burst
	// Each burst is one full bus cycle (two DDR beats of BusBytes).
	// The product is rounded before the +0.5, so no FMA forms.
	return uint64(float64(float64(bursts)*d.cpuPerBus) + 0.5)
}

// channelOf maps an address to a channel: pages are statically
// interleaved across channels, per the paper's page-granularity MC
// mapping assumption (§2).
func (d *DRAM) channelOf(a mem.Addr) int {
	if d.chanMask >= 0 {
		return int(mem.PageNum(a) & uint64(d.chanMask))
	}
	return int(mem.PageNum(a) % uint64(len(d.chans)))
}

// Access times one transaction of n bytes at address a starting no
// earlier than now, returning its completion time in CPU cycles.
// critical selects the bus priority class (demand read path vs
// background fill/writeback/metadata).
//
// Banks pipeline: a row hit occupies the bank only for the
// column-command slot (tCCD-like), a row miss for the
// precharge+activate window; data transfers serialize on the channel's
// data bus. Under load the bus is therefore the binding resource —
// matching real DRAM, where peak bandwidth is achievable with enough
// bank-level parallelism — while row misses still cost latency and
// reduce a single bank's command rate.
func (d *DRAM) Access(now uint64, a mem.Addr, n int, write, critical bool) uint64 {
	if n <= 0 {
		return now
	}
	ch := &d.chans[d.channelOf(a)]

	// Background transfers model batched write/fill draining: they
	// consume bus time behind everything else but do not disturb bank
	// row state or occupy command slots the demand stream needs —
	// controllers drain writes in bursts precisely to keep them off the
	// read path.
	if !critical {
		xfer := d.transferCycles(n)
		dataStart := max64(now+d.rowMissLat, ch.busAll)
		done := dataStart + xfer
		ch.busAll = done
		d.stats.Accesses++
		d.stats.Background++
		d.stats.BusBusy += xfer
		if write {
			d.stats.BytesWritten += uint64(n)
		} else {
			d.stats.BytesRead += uint64(n)
		}
		return done
	}

	row := uint64(a) / rowBytes
	bk := &ch.banks[row%banksPerChannel]

	start := max64(now, bk.busyUntil)
	var lat uint64
	if bk.rowOpen && bk.openRow == row {
		lat = d.casLat
		d.stats.RowHits++
		bk.busyUntil = start + d.ccdLat
	} else {
		lat = d.rowMissLat
		d.stats.RowMisses++
		bk.rowOpen = true
		bk.openRow = row
		bk.busyUntil = start + lat - d.casLat // busy through precharge+activate
	}
	xfer := d.transferCycles(n)
	dataStart := max64(start+lat, ch.busCrit)
	// Back-pressure from the write/fill queue: when the background
	// backlog exceeds the lead bound, the demand stream stalls while
	// the controller drains writes.
	if ch.busAll > dataStart+maxWriteLead {
		dataStart = ch.busAll - maxWriteLead
	}
	done := dataStart + xfer
	// Random demand accesses cannot keep the bus fully packed: command
	// scheduling and read/write turnarounds cost roughly one bus cycle
	// per access, so a 64 B demand stream achieves ~2/3 of peak — the
	// well-known random-access efficiency of DDR — while batched
	// background fills stream at full rate.
	ch.busCrit = done + d.gapLat
	ch.busAll = max64(ch.busAll, dataStart) + xfer + d.gapLat

	d.stats.Accesses++
	d.stats.BusBusy += xfer
	if write {
		d.stats.BytesWritten += uint64(n)
	} else {
		d.stats.BytesRead += uint64(n)
	}
	return done
}

// Extend lengthens the most recent transfer on a's channel by n bytes
// without a new bank command — the second half of a fused access (tag
// riding with data in one burst train). It returns the new completion
// time of that channel's bus in the given priority class.
func (d *DRAM) Extend(a mem.Addr, n int, write, critical bool) uint64 {
	if n <= 0 {
		return 0
	}
	ch := &d.chans[d.channelOf(a)]
	xfer := d.transferCycles(n)
	ch.busAll += xfer
	if critical {
		ch.busCrit += xfer
	}
	d.stats.BusBusy += xfer
	if write {
		d.stats.BytesWritten += uint64(n)
	} else {
		d.stats.BytesRead += uint64(n)
	}
	if critical {
		return ch.busCrit
	}
	return ch.busAll
}

// Utilization returns the fraction of total channel-cycles the data buses
// were busy over the first `elapsed` CPU cycles of the run.
func (d *DRAM) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	return float64(d.stats.BusBusy) / float64(elapsed*uint64(len(d.chans)))
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
