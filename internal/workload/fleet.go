package workload

// Fleet merge primitives: the canonical-order reduction that folds many
// independent cluster campaigns into one fleet-wide Result. The fleet
// orchestration itself (sharding, checkpoint/resume) lives in
// internal/fleet; the merge lives here because it is part of the
// reduction contract — the same bit-identity rules that govern a single
// campaign govern the fold across clusters:
//
//   - counter deltas are integers, so any fold order gives the same bits,
//     but busy-time and covered-time are floats whose sum depends on
//     order: every fold below walks clusters in ascending cluster index,
//     the canonical order, so the merged result is identical for any
//     shard count and any completion order;
//   - a single-cluster merge is the identity: folding one Result through
//     MergeResults reproduces it field for field, which is what lets the
//     golden campaign hash hold through the fleet path.
//
// The merged view is day-major — fleet day d aggregates every cluster's
// day d, the paper's per-day cluster reduction applied to the whole
// fleet — so the analysis layer consumes a fleet exactly as it consumes
// one machine, with Config.Nodes carrying the fleet-wide node count.

import (
	"repro/internal/faults"
	"repro/internal/pbs"
	"repro/internal/rng"
)

// ClusterSeed derives cluster i's campaign seed from the fleet seed.
// Cluster 0 is the anchor: it keeps the fleet seed unchanged, so a
// one-cluster fleet runs the exact campaign the single-cluster path runs
// (the golden-hash contract). Every other cluster draws its seed from a
// dedicated substream namespace, disjoint from the generation and job
// namespaces by construction.
//
//hpmlint:pure seed derivation must be identical on every shard
func ClusterSeed(seed uint64, cluster int) uint64 {
	if cluster == 0 {
		return seed
	}
	return rng.Stream(seed, clusterStreamBase+uint64(cluster)).Uint64()
}

// Merge folds another cluster's same-index day into this one: counter
// deltas add exactly (integers), busy time accumulates in call order —
// which the fleet merge keeps canonical (ascending cluster index).
//
//hpmlint:pure the day fold must depend only on its operands, never on timing
func (d *Day) Merge(o Day) {
	d.Delta.Add(o.Delta)
	d.BusyNodeSeconds += o.BusyNodeSeconds
}

// MergeFinal folds the end-of-campaign aggregates of several cluster
// results, walked in slice (canonical cluster) order, into one fleet
// Final: records concatenate, the record filter counts add, the peak
// 15-minute rate is the fleet-wide maximum, and coverage reports merge
// day-major. The merged Config describes the fleet view — cluster 0's
// parameters with Days the longest window and Nodes the fleet total — so
// per-node reductions divide by fleet capacity. It panics on an empty
// parts slice: a fleet has at least one cluster.
//
//hpmlint:pure the merge is part of the reduction; it must be bit-identical everywhere
func MergeFinal(parts []Result) Final {
	if len(parts) == 0 {
		panic("workload: MergeFinal of no results")
	}
	cfg := parts[0].Config
	cfg.Nodes = 0
	var f Final
	f.MaxGflops15min = parts[0].MaxGflops15min
	var records []pbs.Record
	for i := range parts {
		p := &parts[i]
		if p.Config.Days > cfg.Days {
			cfg.Days = p.Config.Days
		}
		cfg.Nodes += p.Config.Nodes
		if p.MaxGflops15min > f.MaxGflops15min {
			f.MaxGflops15min = p.MaxGflops15min
		}
		f.DroppedRecords += p.DroppedRecords
		if p.Records != nil && records == nil {
			records = []pbs.Record{}
		}
		records = append(records, p.Records...)
	}
	f.Config = cfg
	f.Records = records
	f.Coverage = mergeCoverage(parts)
	return f
}

// mergeCoverage merges the fault layer's sample-accounting reports
// day-major, in canonical cluster order, and totals the merged rows. A
// fleet has a coverage report only when every cluster ran under fault
// injection; mixing faulted and fault-free clusters yields no report,
// because a partial ledger could not cross-foot against the fleet's
// expected samples.
//
//hpmlint:pure ledger folding is pure accounting over the cluster reports
func mergeCoverage(parts []Result) *faults.Report {
	maxDay := -1
	for i := range parts {
		if parts[i].Coverage == nil {
			return nil
		}
		for _, dc := range parts[i].Coverage.Days {
			if dc.Day > maxDay {
				maxDay = dc.Day
			}
		}
	}
	merged := &faults.Report{}
	if maxDay >= 0 {
		merged.Days = make([]faults.DayCoverage, maxDay+1)
		for d := range merged.Days {
			merged.Days[d].Day = d
		}
	}
	for i := range parts {
		for _, dc := range parts[i].Coverage.Days {
			row := &merged.Days[dc.Day]
			row.Coverage.Add(dc.Coverage)
			row.CoveredNodeSeconds += dc.CoveredNodeSeconds
		}
	}
	// The total folds the merged rows in day order — the sum Report.Check
	// verifies. Summing the clusters' totals instead rounds
	// LostNodeSeconds differently in the last place. For one cluster the
	// rows are its own, so this is its own (checked) total.
	for _, row := range merged.Days {
		merged.Total.Add(row.Coverage)
	}
	return merged
}

// MergeResults is the whole-fleet fold: per-day counter reductions merged
// day-major plus the MergeFinal aggregates, all in canonical cluster
// order. Folding a single Result is the identity — the golden-hash
// contract of the fleet path — and the fold is a pure function of the
// parts, so any shard count and any completion order produce the same
// merged Result.
//
//hpmlint:pure the merge is part of the reduction; it must be bit-identical everywhere
func MergeResults(parts []Result) Result {
	f := MergeFinal(parts)
	days := make([]Day, 0, f.Config.Days)
	for d := 0; d < f.Config.Days; d++ {
		day := Day{Index: d}
		for i := range parts {
			if d < len(parts[i].Days) {
				day.Merge(parts[i].Days[d])
			}
		}
		days = append(days, day)
	}
	var rr ResultReducer
	rr.res.Days = days
	rr.Finish(f)
	return rr.Result()
}
