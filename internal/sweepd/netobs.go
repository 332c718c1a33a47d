package sweepd

import (
	"fmt"
	"sync/atomic"

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

var netCalls = []string{callSubmit, callList, callStatus, callCancel,
	callStream, callLease, callRenew, callReport}

// netRetries counts retried calls by name, process-wide — every
// Client in the process feeds the same tallies, mirroring the fault
// package's injection counters: a chaos run is one experiment.
var netRetries = func() map[string]*atomic.Uint64 {
	m := make(map[string]*atomic.Uint64, len(netCalls))
	for _, c := range netCalls {
		m[c] = &atomic.Uint64{}
	}
	return m
}()

// recordRetry tallies one retried call.
func recordRetry(call string) {
	if c, ok := netRetries[call]; ok {
		c.Add(1)
	}
}

// NetRetryTotal returns the total retried calls in this process.
func NetRetryTotal() uint64 {
	var n uint64
	for _, c := range netRetries {
		n += c.Load()
	}
	return n
}

// InstrumentNet exposes the retry tallies on r as
// banshee_net_retries_total{call=...}. Idempotent, like all registry
// registration.
func InstrumentNet(r *obs.Registry) {
	for _, call := range netCalls {
		c := netRetries[call]
		r.CounterFunc(
			fmt.Sprintf("banshee_net_retries_total{call=%q}", call),
			"sweepd client calls retried after transient failures, by call",
			func() float64 { return float64(c.Load()) })
	}
}
