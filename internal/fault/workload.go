package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"banshee/internal/errs"
	"banshee/internal/workload"
)

// Prefix marks workload names that wrap an inner workload with fault
// injection: "fault:<spec>:<inner>", where <spec> is a comma-separated
// k=v list — panic, err, stall (rates in [0,1]), stallms (stall
// duration), after (max event index before the fault fires), seed —
// and <inner> is any resolvable workload name:
//
//	fault:panic=1:pagerank            every replica panics mid-stream
//	fault:err=0.5,seed=3:mix1         half the (name,seed) keys latch a decode error
//	fault:stall=1,stallms=5:lbm       5 ms stall injected once
//
// The injection key is (full name, cores, seed), so each job of a
// sweep draws its fault independently and deterministically — aligned
// with the batch engine's content keys.
const Prefix = "fault:"

// The fault workload kind wraps any inner workload with a
// deterministic source-level fault. Registered at import, like every
// other workload kind; CLIs and tests opt in by importing this
// package.
func init() {
	workload.Register(workload.Def{
		Kind: "fault",
		Open: func(name string, cfg workload.Config) (workload.Source, bool, error) {
			rest, ok := strings.CutPrefix(name, Prefix)
			if !ok {
				return nil, false, nil
			}
			spec, inner, found := strings.Cut(rest, ":")
			if !found || inner == "" {
				return nil, true, fmt.Errorf("workload: %w", errs.Configf("Workload",
					"%q wants fault:<spec>:<inner>, e.g. fault:panic=0.05:pagerank", name))
			}
			plan, err := ParsePlan(spec)
			if err != nil {
				return nil, true, fmt.Errorf("workload: %w", err)
			}
			src, err := workload.Open(inner, cfg)
			if err != nil {
				return nil, true, err
			}
			key := fmt.Sprintf("%s|cores=%d|seed=%d", name, cfg.Cores, cfg.Seed)
			return New(plan).Source(src, key), true, nil
		},
	})
}

// ParsePlan parses a fault spec ("panic=0.05,err=0.1,stallms=2") into
// a Plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return p, errs.Configf("FaultSpec", "%q is not k=v", kv)
		}
		f, ferr := strconv.ParseFloat(v, 64)
		switch k {
		case "panic", "err", "stall", "short":
			if ferr != nil || !(f >= 0 && f <= 1) { // rejects NaN too
				return p, errs.Configf("FaultSpec", "%s wants a rate in [0,1], got %q", k, v)
			}
			switch k {
			case "panic":
				p.PanicRate = f
			case "err":
				p.ErrRate = f
			case "stall":
				p.StallRate = f
			case "short":
				p.ShortRate = f
			}
		case "stallms":
			ns := f * float64(time.Millisecond)
			if ferr != nil || !(ns >= 0 && ns < math.MaxInt64) { // rejects NaN, Inf and overflow
				return p, errs.Configf("FaultSpec", "stallms wants a non-negative duration that fits time.Duration, got %q", v)
			}
			p.Stall = time.Duration(ns)
		case "after":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n == 0 {
				return p, errs.Configf("FaultSpec", "after wants a positive event count, got %q", v)
			}
			p.FaultAfter = n
		case "attempts":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return p, errs.Configf("FaultSpec", "attempts wants a non-negative count, got %q", v)
			}
			p.FailAttempts = n
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return p, errs.Configf("FaultSpec", "seed wants an integer, got %q", v)
			}
			p.Seed = n
		default:
			return p, errs.Configf("FaultSpec", "unknown key %q (valid: panic, err, stall, short, stallms, after, attempts, seed)", k)
		}
	}
	return p, nil
}
