package registry

import (
	"banshee/internal/mc"
	"banshee/internal/schemes"
)

// The NoCache / CacheOnly bounds of the paper's comparison (§5.1.1):
// all traffic to off-package DRAM, and an idealized in-package-only
// memory, respectively.
func init() {
	Register(Scheme{
		Kind:           "nocache",
		Names:          []string{"NoCache"},
		Compare:        []string{"NoCache"},
		Rank:           0,
		Parse:          exact("nocache", "NoCache"),
		NoAllCoreStall: true,
		Build: func(Spec, Env) (mc.Scheme, error) {
			return schemes.NewNoCache(), nil
		},
	})
	Register(Scheme{
		Kind:           "cacheonly",
		Names:          []string{"CacheOnly"},
		Compare:        []string{"CacheOnly"},
		Rank:           60,
		Parse:          exact("cacheonly", "CacheOnly"),
		NoAllCoreStall: true,
		Build: func(Spec, Env) (mc.Scheme, error) {
			return schemes.NewCacheOnly(), nil
		},
	})
}
