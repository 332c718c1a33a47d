package registry

import (
	"banshee/internal/banshee"
	"banshee/internal/mc"
)

// Banshee (Yu et al., MICRO 2017) and its evaluated variants: the LRU
// and no-sampling replacement ablations (Fig. 7), the set-dueling and
// footprint extensions (§5.2/§6), and the 2 MB large-page configuration
// (§5.4.1).
func init() {
	Register(Scheme{
		Kind: "banshee",
		Names: []string{
			"Banshee", "Banshee LRU", "Banshee NoSample", "Banshee Duel",
			"Banshee FP", "Banshee 2M",
		},
		Compare: []string{"Banshee"},
		Rank:    40,
		Parse: func(name string) (Spec, bool) {
			spec := Spec{Kind: "banshee"}
			switch name {
			case "Banshee":
			case "Banshee LRU":
				spec.BansheePolicy = banshee.LRUReplaceOnMiss
			case "Banshee NoSample":
				spec.BansheePolicy = banshee.FBRNoSample
			case "Banshee Duel":
				spec.BansheePolicy = banshee.SetDueling
			case "Banshee FP":
				spec.BansheeFootprint = true
			case "Banshee 2M":
				spec.BansheeLargePages = true
			default:
				return Spec{}, false
			}
			return spec, true
		},
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			cfg := banshee.DefaultConfig(env.CapacityBytes)
			if spec.BansheeLargePages || env.LargePages {
				cfg = banshee.LargePageConfig(env.CapacityBytes)
			}
			cfg.Seed = env.Seed
			cfg.Policy = spec.BansheePolicy
			cfg.Footprint = spec.BansheeFootprint
			if cfg.Policy == banshee.FBRNoSample {
				// Counters must out-range the larger no-sampling threshold.
				cfg.CounterBits = 8
			}
			if spec.BansheeWays > 0 {
				cfg.Ways = spec.BansheeWays
			}
			if spec.BansheeSamplingCoeff > 0 {
				cfg.SamplingCoeff = spec.BansheeSamplingCoeff
			}
			if spec.BansheeThreshold > 0 {
				cfg.Threshold = spec.BansheeThreshold
			}
			if spec.BansheeTagBufEntries > 0 {
				cfg.TagBufferEntries = spec.BansheeTagBufEntries
			}
			return banshee.New(cfg, env.Cost), nil
		},
	})
}
