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
// JobRunner when metrics are on. Every lane gets its own epoch hook
// every `every` retired instructions (0 = a sensible default): with r
// non-nil, a sim.Sampler bound to the lane updates r's live epoch
// gauges, and a successful run folds each lane's final window and
// MSHR stalls into r's totals — failed or cancelled attempts leave no
// residue, keeping the totals equal to the sums over emitted results.
// onEpoch, when non-nil, also receives each lane's snapshots with the
// lane's job. An epoch hook disables batched replay on its lane
// (sim.System.OnEpoch), the same cost a sampled single run pays.
func Observed(r *obs.Registry, every uint64, onEpoch func(Job, stats.Snapshot)) JobRunner {
	if every == 0 {
		every = defaultEpochEvery
	}
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
	var samplers []*sim.Sampler
	if o.reg != nil || o.onEpoch != nil {
		for i, job := range jobs {
			lane := g.Lane(i)
			var sp *sim.Sampler
			if o.reg != nil {
				sp = sim.NewSampler(o.reg)
				sp.Bind(lane)
				samplers = append(samplers, sp)
			}
			lane.OnEpoch(o.every, func(snap stats.Snapshot) {
				if sp != nil {
					sp.Sample(snap)
				}
				if o.onEpoch != nil {
					o.onEpoch(job, snap)
				}
			})
		}
	}
	sts, err := g.Run(ctx)
	if err != nil {
		return nil, err
	}
	for i, sp := range samplers {
		sp.Finish(sts[i])
	}
	return sts, nil
}

// gangKey returns the grouping key under which job may join a gang,
// or ok=false when the job must run alone. Groupmates must agree on
// the scheme kind (the gang stays within one scheme family, so a
// failed gang's diagnosis stays legible) and on the shared front-end
// shape sim.GangKey captures — jobs differing only by seed group iff
// their configs pin WorkloadSeed, and same-seed sweep points group
// whenever only back-end knobs vary.
func gangKey(job Job) (string, bool) {
	if sim.GangEligible(job.Config) != nil {
		return "", false
	}
	return job.Config.Scheme.Kind + "\x00" + sim.GangKey(job.Config), true
}
