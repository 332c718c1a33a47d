package registry

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"banshee/internal/errs"
	"banshee/internal/mc"
	"banshee/internal/mem"
	"banshee/internal/vm"
)

// tally sums an access's op bytes by target, direction and class, as
// "in-package rd HitData". Classes in skip are left out.
func tally(ops []mem.Op, skip ...mem.Class) map[string]int {
	out := map[string]int{}
	for _, o := range ops {
		if slices.Contains(skip, o.Class) {
			continue
		}
		dir := "rd"
		if o.Write {
			dir = "wr"
		}
		out[fmt.Sprintf("%s %s %s", o.Target, dir, o.Class)] += o.Bytes
	}
	return out
}

// TestTable1Traffic drives each comparison scheme's Access directly at
// 1 MB capacity and checks the per-access bytes of the paper's Table 1
// (exp.Table1) against the ops the scheme returns. A page is accessed
// until it hits; the first access is a cold miss. Banshee's sampled
// counter traffic is left out of its rows: the table's hit and miss
// columns are the demand path, which sampling only rarely joins. A
// hit's critical ops all complete in the first stage, and a tag read on
// a hit is fused with the data burst.
func TestTable1Traffic(t *testing.T) {
	const addr = mem.Addr(0x9040)
	for _, tc := range []struct {
		scheme    string
		skip      []mem.Class
		miss, hit map[string]int
	}{
		{
			// Hit: 96 B TAD read. Miss: the same 96 B read is
			// speculative, the line comes from off-package, and the fill
			// (FillProb 1) writes a 32 B tag and the 64 B line.
			scheme: "Alloy 1",
			miss: map[string]int{
				"in-package rd MissData": 64, "in-package rd Tag": 32, "off-package rd MissData": 64,
				"in-package wr Replacement": 64, "in-package wr Tag": 32,
			},
			hit: map[string]int{"in-package rd HitData": 64, "in-package rd Tag": 32},
		},
		{
			// Hit: 64 B data plus the LLT entry read with it. Miss: LLT
			// read, off-package fetch, swap-in and LLT update.
			scheme: "CAMEO",
			miss: map[string]int{
				"in-package rd Tag": 32, "off-package rd MissData": 64,
				"in-package wr Replacement": 64, "in-package wr Tag": 32,
			},
			hit: map[string]int{"in-package rd HitData": 64, "in-package rd Tag": 32},
		},
		{
			// Hit: 128 B (data, tag read, tag write). Miss: 96 B
			// speculative data and tag, then the page's footprint fill.
			scheme: "Unison",
			miss: map[string]int{
				"in-package rd MissData": 64, "in-package rd Tag": 32, "off-package rd MissData": 64,
				"off-package rd Replacement": 960, "in-package wr Replacement": 1024, "in-package wr Tag": 32,
			},
			hit: map[string]int{"in-package rd HitData": 64, "in-package rd Tag": 32, "in-package wr Tag": 32},
		},
		{
			// Hit: 64 B and no tag traffic. Miss: 64 B, then the
			// footprint fill.
			scheme: "TDC",
			miss: map[string]int{
				"off-package rd MissData": 64, "off-package rd Replacement": 960, "in-package wr Replacement": 1024,
			},
			hit: map[string]int{"in-package rd HitData": 64},
		},
		{
			// Hit: 64 B. Miss: 64 B from off-package and 0 B extra.
			scheme: "Banshee",
			skip:   []mem.Class{mem.ClassCounter},
			miss:   map[string]int{"off-package rd MissData": 64},
			hit:    map[string]int{"in-package rd HitData": 64},
		},
		{
			// Without sampling every access reads and writes its set's
			// 32 B counters: 128 B on a hit.
			scheme: "Banshee NoSample",
			miss: map[string]int{
				"off-package rd MissData": 64, "in-package rd Counter": 32, "in-package wr Counter": 32,
			},
			hit: map[string]int{"in-package rd HitData": 64, "in-package rd Counter": 32, "in-package wr Counter": 32},
		},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			spec, err := Parse(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Build(spec, Env{CapacityBytes: 1 << 20, Seed: 7, CPUMHz: 2700, Cost: vm.DefaultCostModel(2700)})
			if err != nil {
				t.Fatal(err)
			}
			res := s.Access(mem.Request{Addr: addr})
			if res.Hit {
				t.Fatal("cold access hit")
			}
			if got := tally(res.Ops, tc.skip...); !maps.Equal(got, tc.miss) {
				t.Errorf("cold miss moved %v, want %v", got, tc.miss)
			}
			var hit mc.Result
			for i := 0; i < 1000 && !hit.Hit; i++ {
				hit = s.Access(mem.Request{Addr: addr})
			}
			if !hit.Hit {
				t.Fatal("the page never hit")
			}
			if got := tally(hit.Ops, tc.skip...); !maps.Equal(got, tc.hit) {
				t.Errorf("hit moved %v, want %v", got, tc.hit)
			}
			for _, o := range hit.Ops {
				if o.Critical && o.Stage != 0 {
					t.Errorf("hit op %v is on the critical path after the first stage", o)
				}
				if o.Class == mem.ClassTag && !o.Write && !o.Fused {
					t.Errorf("hit's tag read %v does not ride the data burst", o)
				}
			}
		})
	}
}

// TestLineTablesFloor: Alloy and CAMEO keep a 32-bit word per line, so
// they refuse a capacity below 2^12 lines (256 KB) with a config error
// naming DCacheBytes, and build at the floor itself.
func TestLineTablesFloor(t *testing.T) {
	for _, name := range []string{"Alloy 1", "Alloy 0.1", "CAMEO"} {
		spec, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		env := testEnv()
		env.CapacityBytes = 128 << 10
		var ce *errs.ConfigError
		if _, err := Build(spec, env); !errors.As(err, &ce) || ce.Field != "DCacheBytes" {
			t.Errorf("%s at 128 KB: err %v, want a DCacheBytes config error", name, err)
		}
		env.CapacityBytes = 256 << 10
		if _, err := Build(spec, env); err != nil {
			t.Errorf("%s at 256 KB: %v", name, err)
		}
	}
}
