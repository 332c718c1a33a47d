package util

import (
	"context"
	"time"
)

// SleepCtx sleeps for d unless ctx ends first; it reports whether the
// full sleep completed. A non-positive d returns at once, reporting
// whether ctx is still live.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
