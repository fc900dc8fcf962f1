package main

// Output checks. Every repetition's result is checked before its timings
// count: the golden recipe before any workload runs, the paper's 18
// conformance bands on every paper-campaign result, the database
// round-trip on analysis-from-db, hash stability on fleet-faulted, and the
// collection ledger on collection-soak. A failed check is counted, not
// hidden: it lands in the run's "failed" total and fails the command.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/profile"
	"repro/internal/workload"
)

// goldenHash is the repository's pinned campaign hash: standard profiles
// at seed 7 with memoization bypassed, then a 2-day DefaultConfig(7)
// campaign, hashed by resultHash.
const goldenHash uint64 = 0x88ee6c33b8c0bd5c

// bandsFile is the conformance table, read in place from the analysis
// package's test data so the benchmark and the conformance suite cannot
// drift apart.
const bandsFile = "internal/analysis/testdata/paper_bands.json"

// resultHash is fnv-64a over the JSON encoding of a campaign Result, the
// same hash the golden and determinism tests use.
func resultHash(res workload.Result) (uint64, error) {
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return 0, fmt.Errorf("hash result: %w", err)
	}
	return h.Sum64(), nil
}

// goldenCampaign runs the pinned recipe and returns its hash.
func goldenCampaign() (uint64, error) {
	std := profile.MeasureStandardStore(nil, 7, 1)
	cfg := workload.DefaultConfig(7)
	cfg.Days = 2
	cfg.Workers = 1
	return resultHash(workload.NewCampaign(cfg, workload.DefaultMix(std)).Run())
}

// checkGolden compares a computed golden-recipe hash with the constant.
func checkGolden(got, want uint64) error {
	if got != want {
		return fmt.Errorf("golden campaign hash %#x, want %#x", got, want)
	}
	return nil
}

// band is one row of the conformance table.
type band struct {
	Metric string  `json:"metric"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	Ref    string  `json:"ref"`
}

// loadBands reads the conformance table under the repository root.
func loadBands(root string) ([]band, error) {
	raw, err := os.ReadFile(filepath.Join(root, bandsFile))
	if err != nil {
		return nil, fmt.Errorf("paper bands: %w", err)
	}
	var f struct {
		Bands []band `json:"bands"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("paper bands: %w", err)
	}
	if len(f.Bands) == 0 {
		return nil, fmt.Errorf("paper bands: %s holds no bands", bandsFile)
	}
	return f.Bands, nil
}

// bandMetrics computes every banded quantity from a campaign, with the
// same extractors as the analysis package's conformance suite.
func bandMetrics(res workload.Result) (map[string]float64, error) {
	t2 := analysis.ComputeTable2(res)
	if t2.GoodDays == 0 {
		return nil, fmt.Errorf("campaign has no >2 Gflops days to band against")
	}
	t3 := analysis.ComputeTable3(res)
	f2 := analysis.ComputeFigure2(res)
	f3 := analysis.ComputeFigure3(res)
	f4 := analysis.ComputeFigure4(res)
	f5 := analysis.ComputeFigure5(res)
	row := func(label string) float64 {
		for _, sec := range t3.Sections {
			for _, r := range sec.Rows {
				if r.Label == label {
					return r.Avg
				}
			}
		}
		return -1 // outside every band, so a renamed row fails loudly
	}
	collapse := 0.0
	if f3.MeanUpTo64 > 0 {
		collapse = f3.MeanBeyond64 / f3.MeanUpTo64
	}
	asym := 0.0
	if fxu0 := row("Mips-Fixed Point (Unit 0)"); fxu0 > 0 {
		asym = row("Mips-Fixed Point (Unit 1)") / fxu0
	}
	return map[string]float64{
		"avg_mflops_per_node":           t2.AvgMflops,
		"avg_mips_per_node":             t2.AvgMips,
		"good_day_utilization":          t2.AvgUtil,
		"fma_fraction":                  t3.FMAFraction,
		"fpu_asymmetry":                 t3.FPUAsymmetry,
		"flops_per_memref":              t3.FlopsPerMem,
		"cache_miss_ratio":              t3.CacheRatio,
		"tlb_miss_ratio":                t3.TLBRatio,
		"mflops_div":                    row("Mflops-div"),
		"fxu1_over_fxu0_mips":           asym,
		"delay_per_memref_cycles":       t3.DelayPerMem,
		"fig2_peak_nodes":               float64(f2.PeakNodes),
		"fig2_over64_walltime_frac":     f2.Over64Frac,
		"fig3_beyond64_collapse_ratio":  collapse,
		"fig3_peak_mflops_per_node":     f3.PeakMflops,
		"fig4_16node_mean_mflops":       f4.Mean,
		"fig4_16node_std_mflops":        f4.Std,
		"fig5_intervention_correlation": f5.Corr,
	}, nil
}

// checkBands evaluates every band against a campaign result. It returns
// one error per failed band (or one for a campaign it cannot band), and
// the number of checks attempted.
func checkBands(bands []band, res workload.Result) (attempted int, errs []error) {
	got, err := bandMetrics(res)
	if err != nil {
		return len(bands), []error{err}
	}
	for _, b := range bands {
		v, ok := got[b.Metric]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("band %q (%s) has no extractor", b.Metric, b.Ref))
		case v < b.Lo || v > b.Hi:
			errs = append(errs, fmt.Errorf("band %q = %v outside [%v, %v] (%s)", b.Metric, v, b.Lo, b.Hi, b.Ref))
		}
	}
	return len(bands), errs
}
