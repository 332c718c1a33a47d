package sweepd

import (
	"fmt"

	"banshee/internal/obs"
)

// Call names keying the retry telemetry and the backoff jitter. Fixed
// set: metrics labels must be low-cardinality.
const (
	callSubmit = "submit"
	callList   = "list"
	callStatus = "status"
	callCancel = "cancel"
	callStream = "stream"
	callLease  = "lease"
	callRenew  = "renew"
	callReport = "report"
)

// netRetries counts retried calls by name, process-wide — every
// Client in the process feeds the same tallies, mirroring the fault
// package's injection counters: a chaos run is one experiment. The
// counters live on obs.Process as banshee_net_retries_total{call=...}.
var netRetries = func() map[string]*obs.Counter {
	m := map[string]*obs.Counter{}
	for _, c := range []string{callSubmit, callList, callStatus, callCancel,
		callStream, callLease, callRenew, callReport} {
		m[c] = obs.Process.Counter(fmt.Sprintf("banshee_net_retries_total{call=%q}", c),
			"sweepd client calls retried after transient failures, by call")
	}
	return m
}()

// recordRetry tallies one retried call.
func recordRetry(call string) {
	if c, ok := netRetries[call]; ok {
		c.Inc()
	}
}

// NetRetryTotal returns the total retried calls in this process.
func NetRetryTotal() uint64 {
	var n uint64
	for _, c := range netRetries {
		n += c.Value()
	}
	return n
}
