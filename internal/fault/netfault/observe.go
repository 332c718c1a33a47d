package netfault

import (
	"fmt"

	"banshee/internal/obs"
)

// injected counts network faults that actually fired, by mode, across
// every Transport and Proxy in the process — mirrors fault.injected:
// a chaos run is one experiment, so the audit trail is process-wide.
// The counters live on obs.Process as
// banshee_net_faults_injected_total{mode=...}.
var injected = func() (c [nModes]*obs.Counter) {
	for m := None + 1; m < nModes; m++ {
		c[m] = obs.Process.Counter(
			fmt.Sprintf("banshee_net_faults_injected_total{mode=%q}", m.String()),
			"injected network faults fired, by mode")
	}
	return c
}()

// record tallies one fired network fault of mode m.
func record(m Mode) {
	if m > None && m < nModes {
		injected[m].Inc()
	}
}

// InjectedCount returns how many network faults of mode m have fired
// in this process.
func InjectedCount(m Mode) uint64 {
	if m <= None || m >= nModes {
		return 0
	}
	return injected[m].Value()
}

// InjectedTotal returns how many network faults of any mode have
// fired in this process.
func InjectedTotal() uint64 {
	var n uint64
	for m := None + 1; m < nModes; m++ {
		n += injected[m].Value()
	}
	return n
}
