package registry

import (
	"banshee/internal/mc"
	"banshee/internal/unison"
)

// Unison Cache [Jevdjic et al.], the way-associative page-granularity
// baseline with in-DRAM tags.
func init() {
	Register(Scheme{
		Kind:     "unison",
		Names:    []string{"Unison"},
		Compare:  []string{"Unison"},
		Rank:     10,
		Parse:    exact("unison", "Unison"),
		GangSafe: true,
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			return unison.New(unison.Config{CapacityBytes: env.CapacityBytes}), nil
		},
	})
}
