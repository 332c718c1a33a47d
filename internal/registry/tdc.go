package registry

import (
	"banshee/internal/mc"
	"banshee/internal/tdc"
)

// Tagless DRAM Cache [Lee et al.], the TLB-coherent fully-associative
// baseline.
func init() {
	Register(Scheme{
		Kind:           "tdc",
		Names:          []string{"TDC"},
		Compare:        []string{"TDC"},
		Rank:           20,
		Parse:          exact("tdc", "TDC"),
		NoAllCoreStall: true,
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			return tdc.New(tdc.Config{CapacityBytes: env.CapacityBytes}), nil
		},
	})
}
