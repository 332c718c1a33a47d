package registry

import (
	"banshee/internal/cameo"
	"banshee/internal/mc"
)

// CAMEO [Chou et al.], the line-granularity swap-based design.
func init() {
	Register(Scheme{
		Kind:           "cameo",
		Names:          []string{"CAMEO"},
		Rank:           70,
		Parse:          exact("cameo", "CAMEO"),
		NoAllCoreStall: true,
		Build: func(spec Spec, env Env) (mc.Scheme, error) {
			if err := minCapacity(env, cameo.MinCapacityBytes); err != nil {
				return nil, err
			}
			return cameo.New(cameo.Config{CapacityBytes: env.CapacityBytes}), nil
		},
	})
}
