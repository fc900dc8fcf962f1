package main

// Metric names, and the reduction of repetitions to the figures one run
// reports. Every workload reports every name; a layer a workload never
// enters reads zero. BENCHMARK.json lists the same names; the tests keep
// the two in step.

import (
	"math"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics, with units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"artifact_mb", "MB"},
}

// perLayer lists the traced run's metrics, with units, grouped by layer.
var perLayer = []struct{ name, unit string }{
	{"workload.ticks", "count"},
	{"workload.engine.jobs_advanced", "count"},
	{"workload.engine.nodes_sampled", "count"},
	{"workload.engine.advance_ns_per_job", "ns"},
	{"workload.engine.sample_ns_per_node", "ns"},
	{"workload.campaign.tick_us", "us"},
	{"workload.campaign.generate_ms", "ms"},
	{"workload.campaign.reduce_ms", "ms"},
	{"workload.day_ms_p50", "ms"},
	{"workload.day_ms_p95", "ms"},
	{"workload.new_campaign_ms", "ms"},
	{"workload.new_campaign_alloc_mb", "MB"},
	{"workload.run_alloc_mb", "MB"},

	{"profile.measure_s", "s"},
	{"profile.store.misses", "count"},
	{"profile.store.hits", "count"},
	{"power2.ns_per_instr", "ns"},

	{"trace.encode_s", "s"},
	{"trace.encode_json_s", "s"},
	{"trace.db_raw_mb", "MB"},
	{"trace.db_gz_mb", "MB"},
	{"trace.decode_s", "s"},
	{"trace.decode_json_s", "s"},

	{"analysis.tables_ms", "ms"},
	{"analysis.table4_seq_ms", "ms"},
	{"analysis.table4_bt49_s", "s"},
	{"analysis.whatif_s", "s"},
	{"analysis.npb_s", "s"},

	{"fleet.cluster_s_mean", "s"},
	{"fleet.shard_busy_frac", "fraction"},
	{"fleet.checkpoint_ms", "ms"},
	{"fleet.checkpoints_written", "count"},
	{"fleet.days_merged", "count"},
	{"replay.records_written", "count"},
	{"replay.bytes_written", "bytes"},
	{"faults.captured_frac", "fraction"},

	{"rs2hpm.samples_per_s", "1/s"},
	{"rs2hpm.sweep_p50_ms", "ms"},
	{"rs2hpm.sweep_p99_ms", "ms"},
	{"rs2hpm.wire_bytes_per_sample", "bytes"},
	{"rs2hpm.pool.reuse_frac", "fraction"},
	{"rs2hpm.client.batches_per_sweep", "count"},
	{"rs2hpm.ingest.captured_frac", "fraction"},

	{"unattributed_frac", "fraction"},
	{"telemetry.overhead_frac", "fraction"},
	{"failed_frac", "fraction"},
}

// median of xs; 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is num/den, or 0 when den is 0: the layer did not run.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
