package fault

import (
	"fmt"

	"banshee/internal/obs"
)

// injected counts faults that actually fired, by mode, across every
// injector in the process — the audit trail that makes a chaos run's
// metric stream interpretable (how many failures were synthetic).
// Process-wide on purpose: injectors are created per wrap site, but a
// chaos run is one experiment. The counters live on obs.Process as
// banshee_faults_injected_total{mode="panic"|"err"|"stall"|"short"},
// so every exposition in a binary that links this package shows them.
var injected = func() (c [Short + 1]*obs.Counter) {
	for m := Panic; m <= Short; m++ {
		c[m] = obs.Process.Counter(
			fmt.Sprintf("banshee_faults_injected_total{mode=%q}", m.String()),
			"injected faults fired, by mode")
	}
	return c
}()

// recordFault tallies one fired fault of mode m.
func recordFault(m Mode) {
	if m > None && m <= Short {
		injected[m].Inc()
	}
}

// InjectedCount returns how many faults of mode m have fired in this
// process.
func InjectedCount(m Mode) uint64 {
	if m <= None || m > Short {
		return 0
	}
	return injected[m].Value()
}
