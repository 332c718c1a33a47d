package sim

import (
	"context"
	"testing"

	"banshee/internal/mc"
	"banshee/internal/mem"
)

// opTally wraps a scheme and sums the bytes of every op it returns, by
// target and class: an independent count of the traffic the simulator
// accounts in stats.Sim.
type opTally struct {
	mc.Scheme
	bytes [2][mem.ClassCount]uint64 // indexed by mem.Kind
}

func (t *opTally) Access(req mem.Request) mc.Result {
	res := t.Scheme.Access(req)
	for _, op := range res.Ops {
		t.bytes[op.Target][op.Class] += uint64(op.Bytes)
	}
	return res
}

// TestTrafficEqualsOpBytes checks that the per-class traffic of a run
// is exactly the sum of the sizes of the ops its scheme returned, over
// the golden schemes and workloads (the root package's golden test)
// with no warmup, so the measurement window is the whole run.
func TestTrafficEqualsOpBytes(t *testing.T) {
	schemes := []string{
		"Alloy", "Alloy 1", "Alloy 0.1",
		"Banshee", "Banshee LRU", "Banshee NoSample", "Banshee Duel",
		"Banshee FP", "Banshee 2M",
		"NoCache", "CacheOnly", "CAMEO", "HMA", "TDC", "Unison",
		"Banshee+BATMAN", "Alloy 1+BATMAN",
	}
	for _, scheme := range schemes {
		for _, w := range []string{"mcf", "mix1", "pagerank"} {
			cfg := DefaultConfig()
			cfg.Cores = 2
			cfg.InstrPerCore = 60_000
			cfg.Seed = 42
			cfg.WarmupFrac = 0
			cfg.Scheme.HMAEpochAccesses = 2000
			cfg.LargePages = scheme == "Banshee 2M"
			sess, err := NewSession(cfg, w, scheme)
			if err != nil {
				t.Fatalf("%s × %s: %v", scheme, w, err)
			}
			sys := sess.System()
			tally := &opTally{Scheme: sys.scheme}
			sys.scheme = tally
			st, err := sess.Run(context.Background())
			if err != nil {
				t.Fatalf("%s × %s: %v", scheme, w, err)
			}
			if st.InPkg.Total()+st.OffPkg.Total() == 0 {
				t.Fatalf("%s × %s: no DRAM traffic", scheme, w)
			}
			if st.InPkg.Bytes != tally.bytes[mem.InPackage] || st.OffPkg.Bytes != tally.bytes[mem.OffPackage] {
				t.Errorf("%s × %s: traffic in %v off %v, op bytes in %v off %v", scheme, w,
					st.InPkg.Bytes, st.OffPkg.Bytes, tally.bytes[mem.InPackage], tally.bytes[mem.OffPackage])
			}
		}
	}
}
