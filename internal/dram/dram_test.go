package dram

import (
	"math"
	"testing"
	"testing/quick"

	"banshee/internal/mem"
)

func testConfig() Config {
	c := OffPackageConfig(2700)
	return c
}

func TestPeakBandwidth(t *testing.T) {
	off := OffPackageConfig(2700)
	in := InPackageConfig(2700)
	// Table 2: ~21 GB/s off-package, ~85 GB/s in-package.
	if got := off.PeakBandwidthGBs(); math.Abs(got-21.3) > 0.2 {
		t.Errorf("off-package peak %v GB/s, want ~21.3", got)
	}
	if got := in.PeakBandwidthGBs(); math.Abs(got-85.4) > 0.5 {
		t.Errorf("in-package peak %v GB/s, want ~85.4", got)
	}
}

func TestMinTransfer(t *testing.T) {
	d := New(testConfig())
	if d.MinTransferBytes() != 32 {
		t.Fatalf("min transfer %d, want 32", d.MinTransferBytes())
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.CPUMHz = 0 },
		func(c *Config) { c.LatencyScale = 0 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New did not panic on invalid config", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestZeroByteAccess(t *testing.T) {
	d := New(testConfig())
	if got := d.Access(100, 0, 0, false, true); got != 100 {
		t.Fatalf("zero-byte access returned %d, want 100 (no-op)", got)
	}
	// The no-op leaves no trace: a following 64 B access completes
	// exactly as on a fresh DRAM, with the same row outcome.
	fresh := New(testConfig())
	if got, want := d.Access(100, 0, 64, false, true), fresh.Access(100, 0, 64, false, true); got != want {
		t.Fatalf("access after zero-byte access completed at %d, fresh DRAM at %d", got, want)
	}
	if got, want := d.Stats(), fresh.Stats(); got != want {
		t.Fatalf("row hits/misses %d/%d after zero-byte access, fresh DRAM %d/%d",
			got.RowHits, got.RowMisses, want.RowHits, want.RowMisses)
	}
}

func TestLatencyComponents(t *testing.T) {
	d := New(testConfig())
	// First access to a bank: row miss → tRP+tRCD+tCAS = 30 DRAM cycles
	// ≈ 121 CPU cycles at 2.7 GHz / 667 MHz, plus 64 B transfer (2
	// bursts ≈ 8 cycles).
	done := d.Access(0, 0, 64, false, true)
	if done < 110 || done > 145 {
		t.Fatalf("cold access latency %d, want ~129", done)
	}
	// Second access to the same row: row hit, ~tCAS (10 cycles ≈ 40)
	// plus transfer; starts after the bus gap.
	done2 := d.Access(done, 64, 64, false, true)
	lat2 := done2 - done
	if lat2 < 40 || lat2 > 70 {
		t.Fatalf("row-hit latency %d, want ~48", lat2)
	}
	st := d.Stats()
	if st.RowMisses != 1 || st.RowHits != 1 {
		t.Fatalf("row hits/misses = %d/%d, want 1/1", st.RowHits, st.RowMisses)
	}
}

func TestLatencyScale(t *testing.T) {
	fast := testConfig()
	fast.LatencyScale = 0.5
	df := New(fast)
	ds := New(testConfig())
	lf := df.Access(0, 0, 64, false, true)
	ls := ds.Access(0, 0, 64, false, true)
	if lf >= ls {
		t.Fatalf("scaled latency %d not below unscaled %d", lf, ls)
	}
}

func TestBusSerializesCritical(t *testing.T) {
	d := New(testConfig())
	// Saturate with back-to-back 64 B critical reads to one channel:
	// completions must be spaced at least a transfer apart and
	// throughput must approach (not exceed) peak.
	const n = 10000
	var last uint64
	for i := 0; i < n; i++ {
		a := mem.Addr(i * 64)
		done := d.Access(0, a, 64, false, true)
		if done <= last && i > 0 {
			t.Fatalf("access %d completed at %d, not after previous %d", i, done, last)
		}
		last = done
	}
	bytesPerCycle := float64(n*64) / float64(last)
	peak := 32.0 / (2700.0 / 667.0) // 32 B per bus cycle
	if bytesPerCycle > peak*1.01 {
		t.Fatalf("throughput %.2f B/cycle exceeds peak %.2f", bytesPerCycle, peak)
	}
	// Random 64 B reads should still achieve a healthy fraction of peak
	// (the bus gap costs ~1/3).
	if bytesPerCycle < peak*0.5 {
		t.Fatalf("throughput %.2f B/cycle below half of peak %.2f", bytesPerCycle, peak)
	}
}

func TestChannelParallelism(t *testing.T) {
	// With 4 channels, 4 streams to distinct channels should finish
	// ~4x faster than on 1 channel.
	one := testConfig()
	four := InPackageConfig(2700)
	d1, d4 := New(one), New(four)
	var last1, last4 uint64
	for i := 0; i < 4000; i++ {
		// Page-stride addresses rotate across channels.
		a := mem.Addr(i * mem.PageBytes)
		last1 = maxU(last1, d1.Access(0, a, 64, false, true))
		last4 = maxU(last4, d4.Access(0, a, 64, false, true))
	}
	// The page-stride pattern exercises only half the banks per channel
	// in the 4-channel layout, so the observed gain is bank-bound below
	// the ideal 4x; anything over 2x demonstrates channel parallelism.
	ratio := float64(last1) / float64(last4)
	if ratio < 2 {
		t.Fatalf("4-channel speedup %.2f, want >2", ratio)
	}
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestBackgroundDoesNotDelayLightCriticalStream(t *testing.T) {
	d := New(testConfig())
	// Light critical traffic with heavy background: critical latency
	// must stay near zero-load as long as the background lead bound
	// isn't hit.
	base := d.Access(0, 0, 64, false, true) // zero-load reference
	d2 := New(testConfig())
	for i := 0; i < 20; i++ {
		d2.Access(0, mem.Addr(i*mem.PageBytes), 64, true, false)
	}
	got := d2.Access(0, 0, 64, false, true)
	if got > base+maxWriteLead {
		t.Fatalf("critical access delayed to %d by background (zero-load %d)", got, base)
	}
}

func TestWriteLeadBackpressure(t *testing.T) {
	d := New(testConfig())
	// Flood background traffic far beyond the lead bound; a critical
	// access must then be pushed behind (busAll - maxLead).
	for i := 0; i < 3000; i++ {
		d.Access(0, mem.Addr(i*mem.PageBytes), 4096, true, false)
	}
	done := d.Access(0, 0, 64, false, true)
	if done < 100000 {
		t.Fatalf("critical access at %d did not feel write backpressure", done)
	}
}

func TestExtendAddsBusTime(t *testing.T) {
	d := New(testConfig())
	done := d.Access(0, 0, 64, false, true)
	ext := d.Extend(0, 32, false, true)
	if ext <= done {
		t.Fatalf("Extend returned %d, not after primary %d", ext, done)
	}
	// The extension queues its burst right behind the primary's, on
	// the same critical backlog.
	if want := done + d.gapLat + d.transferCycles(32); ext != want {
		t.Fatalf("Extend returned %d, want %d", ext, want)
	}
}

func TestExtendZeroBytes(t *testing.T) {
	d := New(testConfig())
	if d.Extend(0, 0, false, true) != 0 {
		t.Fatal("zero-byte Extend should be a no-op")
	}
}

func TestMonotonicCompletionProperty(t *testing.T) {
	// Property: for any access sequence at nondecreasing times,
	// completion >= issue time + transfer time.
	f := func(addrs []uint16, sizes []uint8) bool {
		d := New(testConfig())
		now := uint64(0)
		for i, a16 := range addrs {
			var sz uint8
			if len(sizes) > 0 {
				sz = sizes[i%len(sizes)]
			}
			size := 32 + int(sz%4)*32
			addr := mem.Addr(a16) * 64
			done := d.Access(now, addr, size, i%2 == 0, i%3 == 0)
			if done < now {
				return false
			}
			now += 5
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
