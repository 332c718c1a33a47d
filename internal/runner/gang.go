package runner

import (
	"context"

	"banshee/internal/obs"
	"banshee/internal/sim"
	"banshee/internal/stats"
)

// Simulate is the default JobRunner: the group's configs run as the
// lanes of one sim.Gang, driven to completion under ctx. A one-job
// group is a width-1 gang — a stand-alone run of any scheme.
func Simulate(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
	return laneObserver{}.run(ctx, jobs)
}

// Observed is Simulate with per-lane observation, the default
// JobRunner when metrics are on: the gang's lanes are observed through
// sim.Gang.Observe every `every` retired instructions (0 =
// sim.DefaultEpochEvery). With r non-nil the lanes drive r's live
// epoch gauges, and a successful run folds each lane's final window
// and MSHR stalls into r's totals — failed or cancelled attempts leave
// no residue, keeping the totals equal to the sums over emitted
// results. onEpoch, when non-nil, also receives each lane's snapshots
// with the lane's job.
func Observed(r *obs.Registry, every uint64, onEpoch func(Job, stats.Snapshot)) JobRunner {
	return laneObserver{reg: r, every: every, onEpoch: onEpoch}.run
}

// laneObserver is what the default runner attaches to each lane.
type laneObserver struct {
	reg     *obs.Registry
	every   uint64
	onEpoch func(Job, stats.Snapshot)
}

func (o laneObserver) run(ctx context.Context, jobs []Job) ([]stats.Sim, error) {
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.Config
	}
	g, err := sim.NewGang(cfgs)
	if err != nil {
		return nil, err
	}
	var fns []func(int, stats.Snapshot)
	if o.onEpoch != nil {
		fns = append(fns, func(lane int, s stats.Snapshot) { o.onEpoch(jobs[lane], s) })
	}
	fold := g.Observe(o.every, o.reg, fns...)
	sts, err := g.Run(ctx)
	if err != nil {
		return nil, err
	}
	fold(sts)
	return sts, nil
}
