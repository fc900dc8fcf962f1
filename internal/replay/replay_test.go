package replay_test

// The differential proof layer: record a campaign, replay the trace,
// and demand full-Result hash equality with the live run — on a fleet of
// one (the single-machine campaign) at workers {1, 8}, on the fleet at
// shards {1, 4}, and for faulted campaigns whose resolved fault plans
// must round-trip through the trace. The golden campaign hash pins the
// replay path to the same constant every other execution knob is pinned
// to: a trace-fed simulation is an execution knob, never a model change.
//
// This file lives in an external test package so it can drive
// internal/fleet, which imports internal/replay.

import (
	"encoding/json"
	"hash/fnv"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/workload"
)

// goldenCampaignHash mirrors the constant pinned in
// internal/workload/golden_test.go: resultHash of the seed-7, 2-day
// default campaign.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

func resultHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

// goldenDef is the golden recipe: standard profiles at seed 7, 2-day
// default campaign, the given engine worker count. Profile measurement
// memoizes through the default store, so repeated calls are cheap.
func goldenDef(workers int) (workload.Config, workload.Mix) {
	std := profile.MeasureStandardWorkers(7, workers)
	cfg := workload.DefaultConfig(7)
	cfg.Days = 2
	cfg.Workers = workers
	return cfg, workload.DefaultMix(std)
}

// fleetOfOne is the single-machine campaign as the fleet engine runs it.
func fleetOfOne(cfg workload.Config, mix workload.Mix) []fleet.Member {
	return []fleet.Member{{Config: cfg, Mix: mix}}
}

func TestGoldenRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign is a full 2-day simulation per case")
	}
	for _, recWorkers := range []int{1, 8} {
		cfg, mix := goldenDef(recWorkers)
		path := filepath.Join(t.TempDir(), "golden.trace.gz")
		live, err := fleet.Run(fleetOfOne(cfg, mix), fleet.Options{RecordTo: path})
		if err != nil {
			t.Fatalf("workers=%d: record: %v", recWorkers, err)
		}
		if h := resultHash(t, live); h != goldenCampaignHash {
			t.Fatalf("workers=%d: recorded live run hash %#x, want golden %#x — the recording tap changed observable behaviour",
				recWorkers, h, goldenCampaignHash)
		}
		for _, repWorkers := range []int{1, 8} {
			rcfg := cfg
			rcfg.Workers = repWorkers
			res, err := fleet.Run(fleetOfOne(rcfg, mix), fleet.Options{ReplayFrom: path})
			if err != nil {
				t.Fatalf("workers=%d->%d: replay: %v", recWorkers, repWorkers, err)
			}
			if h := resultHash(t, res); h != goldenCampaignHash {
				t.Fatalf("workers=%d->%d: replayed hash %#x, want golden %#x — replay is not bit-identical to live generation",
					recWorkers, repWorkers, h, goldenCampaignHash)
			}
		}
	}
}

func TestGoldenFleetRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet campaign is a full 2-day simulation per case")
	}
	members := fleetOfOne(goldenDef(1))
	path := filepath.Join(t.TempDir(), "golden-fleet.trace.gz")
	live, err := fleet.Run(members, fleet.Options{RecordTo: path})
	if err != nil {
		t.Fatalf("fleet record: %v", err)
	}
	if h := resultHash(t, live); h != goldenCampaignHash {
		t.Fatalf("recorded fleet hash %#x, want golden %#x", h, goldenCampaignHash)
	}
	for _, shards := range []int{1, 4} {
		res, err := fleet.Run(members, fleet.Options{Shards: shards, ReplayFrom: path})
		if err != nil {
			t.Fatalf("shards=%d: fleet replay: %v", shards, err)
		}
		if h := resultHash(t, res); h != goldenCampaignHash {
			t.Fatalf("shards=%d: replayed fleet hash %#x, want golden %#x — the fleet replay path changed bits",
				shards, h, goldenCampaignHash)
		}
	}
}

// faultedDef is a campaign with every fault mode hot enough to fire in a
// 2-day window: the trace must round-trip resolved fault plans, not just
// day plans, for replay to land on the live bits.
func faultedDef(t *testing.T) (workload.Config, workload.Mix) {
	t.Helper()
	std := profile.MeasureStandardWorkers(7, 1)
	cfg := workload.DefaultConfig(11)
	cfg.Days = 2
	fc := faults.Config{
		CrashProbPerNodeDay:      0.05,
		MeanOutageTicks:          6,
		DropProbPerSample:        0.03,
		DupProbPerSample:         0.01,
		RestartProbPerNodeDay:    0.05,
		EpilogueDelayProb:        0.2,
		EpilogueDelayMeanSeconds: 300,
	}
	cfg.Faults = &fc
	return cfg, workload.DefaultMix(std)
}

func TestFaultedRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted campaign is a full 2-day simulation per case")
	}
	cfg, mix := faultedDef(t)
	path := filepath.Join(t.TempDir(), "faulted.trace.gz")
	live, err := fleet.Run(fleetOfOne(cfg, mix), fleet.Options{RecordTo: path})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if live.Coverage == nil || live.Coverage.Total.Expected == live.Coverage.Total.Captured {
		t.Fatal("faulted campaign lost no samples; the fault round-trip is untested at these rates")
	}
	want := resultHash(t, live)
	rp, err := replay.OpenFile(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	if !rp.Header().Faulted {
		t.Fatal("trace of a faulted campaign is not marked Faulted")
	}
	for _, workers := range []int{1, 8} {
		rcfg := cfg
		rcfg.Workers = workers
		res, err := fleet.Run(fleetOfOne(rcfg, mix), fleet.Options{ReplayFrom: path})
		if err != nil {
			t.Fatalf("workers=%d: replay: %v", workers, err)
		}
		if h := resultHash(t, res); h != want {
			t.Fatalf("workers=%d: replayed faulted hash %#x, live %#x — fault plans did not survive the trace",
				workers, h, want)
		}
	}
}

// TestHeterogeneousFleetRecordReplay drives the fleet seam hard: two
// clusters with different day windows, one faulted, recorded under
// concurrent shards (record order is nondeterministic; the decoder
// indexes, never assumes position) and replayed at shards {1, 4}.
func TestHeterogeneousFleetRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	std := profile.MeasureStandardWorkers(7, 1)
	mix := workload.DefaultMix(std)
	c0 := workload.DefaultConfig(workload.ClusterSeed(21, 0))
	c0.Days = 2
	fc := faults.Default()
	fc.CrashProbPerNodeDay = 0.1 // hot enough to fire in a 2-day window
	c0.Faults = &fc
	c1 := workload.DefaultConfig(workload.ClusterSeed(21, 1))
	c1.Days = 1
	members := []fleet.Member{{Config: c0, Mix: mix}, {Config: c1, Mix: mix}}

	path := filepath.Join(t.TempDir(), "fleet.trace.gz")
	live, err := fleet.Run(members, fleet.Options{Shards: 2, RecordTo: path})
	if err != nil {
		t.Fatalf("fleet record: %v", err)
	}
	want := resultHash(t, live)
	for _, shards := range []int{1, 4} {
		res, err := fleet.Run(members, fleet.Options{Shards: shards, ReplayFrom: path})
		if err != nil {
			t.Fatalf("shards=%d: fleet replay: %v", shards, err)
		}
		if h := resultHash(t, res); h != want {
			t.Fatalf("shards=%d: replayed fleet hash %#x, live %#x", shards, h, want)
		}
	}
}
