package registry

import (
	"banshee/internal/alloy"
	"banshee/internal/mc"
)

// Alloy Cache + BEAR [Qureshi & Loh], the direct-mapped baseline; the
// paper evaluates fill probabilities 1 and 0.1.
func init() {
	Register(Scheme{
		Kind:    "alloy",
		Names:   []string{"Alloy", "Alloy 1", "Alloy 0.1"},
		Compare: []string{"Alloy 1", "Alloy 0.1"},
		Rank:    30,
		Parse: func(name string) (Spec, bool) {
			switch name {
			case "Alloy", "Alloy 1":
				return Spec{Kind: "alloy", AlloyFillProb: 1}, true
			case "Alloy 0.1":
				return Spec{Kind: "alloy", AlloyFillProb: 0.1}, true
			}
			return Spec{}, false
		},
		NoAllCoreStall: true,
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			if err := minCapacity(env, alloy.MinCapacityBytes); err != nil {
				return nil, err
			}
			p := spec.AlloyFillProb
			if p == 0 {
				p = 1
			}
			return alloy.New(alloy.Config{CapacityBytes: env.CapacityBytes, FillProb: p, Seed: env.Seed}), nil
		},
	})
}
