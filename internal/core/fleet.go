package core

// The run path: every campaign a System runs goes through the fleet
// engine (internal/fleet). One machine is a fleet of one, bit-identical
// to the classic campaign; the fleet shape comes from the spec's fleet
// block, an explicit cluster count, or both (the explicit count wins and
// replicates the base campaign).

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/spec"
	"repro/internal/workload"
)

// FleetConfig selects the fleet shape and execution for RunFleet. The
// zero value runs the spec's fleet block (or a fleet of one) in a single
// shard with no checkpointing.
type FleetConfig struct {
	// Clusters, when > 0, overrides the fleet size with that many
	// homogeneous copies of the base campaign (per-cluster spec overrides
	// are dropped — an explicit count redefines the fleet).
	Clusters int
	// Shards is the number of cluster-level workers (see fleet.Options).
	Shards int
	// Checkpoint / CheckpointEachDay / Resume / HaltAfter / RecordTo /
	// ReplayFrom map directly to fleet.Options.
	Checkpoint        string
	CheckpointEachDay bool
	Resume            bool
	HaltAfter         int
	RecordTo          string
	ReplayFrom        string
}

// FleetMembers builds the fleet definition the system would run:
// per-cluster campaign configs with substream-derived seeds and the
// shared mix. clusters > 0 forces that many homogeneous copies of the
// base campaign; 0 defers to the spec's fleet block (a fleet of one
// without a spec, or when the spec has no fleet block). A member the
// campaign could not run — an empty window or cluster, or a job size
// larger than the cluster — is a field-path error.
func (s *System) FleetMembers(clusters int) ([]fleet.Member, error) {
	var cfgs []workload.Config
	switch {
	case clusters > 0 || s.sp == nil || s.sp.Fleet == nil:
		if clusters <= 0 {
			clusters = 1
		}
		base := s.CampaignConfig()
		cfgs = make([]workload.Config, clusters)
		for i := range cfgs {
			cfgs[i] = base
		}
	default:
		var err error
		cfgs, _, err = spec.ResolveFleet(s.sp, s.std)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		for i := range cfgs {
			// Explicit caller overrides apply fleet-wide; inherited values
			// defer to the spec's per-cluster overrides.
			if s.daysSet {
				cfgs[i].Days = s.cfg.Days
			}
			if s.nodesSet {
				cfgs[i].Nodes = s.cfg.Nodes
			}
			cfgs[i].Workers = s.cfg.Workers
			s.injectFaults(&cfgs[i])
		}
	}
	largest, where := largestJob(s.mix)
	members := make([]fleet.Member, len(cfgs))
	for i := range cfgs {
		c := &cfgs[i]
		path := fmt.Sprintf("clusters[%d]", i)
		switch {
		case c.Days < 1:
			return nil, fmt.Errorf("core: %w", spec.FieldError{Path: path + ".days", Msg: fmt.Sprintf("must be >= 1 (got %d)", c.Days)})
		case c.Nodes < 1:
			return nil, fmt.Errorf("core: %w", spec.FieldError{Path: path + ".nodes", Msg: fmt.Sprintf("must be >= 1 (got %d)", c.Nodes)})
		case c.Nodes < largest:
			return nil, fmt.Errorf("core: %w", spec.FieldError{Path: path + ".nodes",
				Msg: fmt.Sprintf("must hold the largest job (%s: %d nodes), got %d", where, largest, c.Nodes)})
		}
		c.Seed = workload.ClusterSeed(s.cfg.Seed, i)
		members[i] = fleet.Member{Config: *c, Mix: s.mix}
	}
	return members, nil
}

// largestJob returns the largest node count the mix can request — over
// the campaign-wide size distribution and every client override, counting
// only sizes with nonzero weight — and the field path it comes from.
func largestJob(mix workload.Mix) (int, string) {
	largest, where := 0, ""
	consider := func(d workload.SizeDist, path string) {
		for i, n := range d.Counts {
			if i < len(d.Weights) && d.Weights[i] > 0 && n > largest {
				largest, where = n, path
			}
		}
	}
	consider(mix.JobSize, "job_size")
	for i, cl := range mix.Clients {
		if cl.JobSize != nil {
			consider(*cl.JobSize, fmt.Sprintf("clients[%d].job_size", i))
		}
	}
	return largest, where
}

// RunFleet executes the fleet campaign, streaming the merged reduction
// into the sinks, and returns the merged Result (see fleet.Run).
func (s *System) RunFleet(fc FleetConfig, sinks ...workload.Reducer) (workload.Result, error) {
	members, err := s.FleetMembers(fc.Clusters)
	if err != nil {
		return workload.Result{}, err
	}
	return fleet.Run(members, fleet.Options{
		Shards:            fc.Shards,
		Checkpoint:        fc.Checkpoint,
		CheckpointEachDay: fc.CheckpointEachDay,
		Resume:            fc.Resume,
		HaltAfter:         fc.HaltAfter,
		RecordTo:          fc.RecordTo,
		ReplayFrom:        fc.ReplayFrom,
	}, sinks...)
}
