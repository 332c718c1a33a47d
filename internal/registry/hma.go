package registry

import (
	"banshee/internal/hma"
	"banshee/internal/mc"
)

// Software-managed heterogeneous memory (HMA, [Meswani et al.]): the OS
// periodically ranks and remaps hot pages. Its lanes never batch: each
// remap epoch stalls every core (mc.SWCost.AllCoresCycles).
func init() {
	Register(Scheme{
		Kind:  "hma",
		Names: []string{"HMA"},
		Rank:  50,
		Parse: exact("hma", "HMA"),
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			cfg := hma.DefaultConfig(env.CapacityBytes)
			if spec.HMAEpochAccesses > 0 {
				cfg.EpochAccesses = spec.HMAEpochAccesses
			}
			return hma.New(cfg), nil
		},
	})
}
