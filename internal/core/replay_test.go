package core

// The record/replay run path, end to end: the golden campaign hash must
// come back through RunFleet's RecordTo → ReplayFrom on the default
// fleet of one (the single campaign) and when replayed at shards {1, 4},
// and a replay against a different system must hard-fail with the replay
// package's mismatch error.

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/replay"
	"repro/internal/workload"
)

// goldenCampaignHash mirrors the constant pinned in
// internal/workload/golden_test.go.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

func campaignHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

var (
	goldenOnce sync.Once
	goldenSys  *System
)

// goldenSystem builds the golden recipe through the facade: seed 7,
// 2-day default campaign (serial engine so the recipe is explicit).
func goldenSystem(t *testing.T) *System {
	t.Helper()
	goldenOnce.Do(func() { goldenSys = New(Config{Days: 2, Seed: 7, Workers: 1}) })
	return goldenSys
}

// TestRunCampaignRecordReplayGolden records and replays the single
// campaign: RunFleet with a zero FleetConfig is the one way a campaign runs.
func TestRunCampaignRecordReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden campaign is a full 2-day simulation per case")
	}
	s := goldenSystem(t)
	path := filepath.Join(t.TempDir(), "core.trace.gz")
	live, err := s.RunFleet(FleetConfig{RecordTo: path})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if h := campaignHash(t, live); h != goldenCampaignHash {
		t.Fatalf("recorded run hash %#x, want golden %#x", h, goldenCampaignHash)
	}
	res, err := s.RunFleet(FleetConfig{ReplayFrom: path})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if h := campaignHash(t, res); h != goldenCampaignHash {
		t.Fatalf("replayed hash %#x, want golden %#x", h, goldenCampaignHash)
	}

	// A different seed is a different campaign: the run path must surface
	// the fingerprint mismatch, not a plausible wrong Result.
	other := New(Config{Days: 2, Seed: 8, Workers: 1})
	if _, err := other.RunFleet(FleetConfig{ReplayFrom: path}); !errors.Is(err, replay.ErrMismatch) {
		t.Fatalf("replay against the wrong system: %v, want ErrMismatch", err)
	}
}

func TestRunFleetRecordReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet campaign is a full 2-day simulation per case")
	}
	s := goldenSystem(t)
	path := filepath.Join(t.TempDir(), "core-fleet.trace.gz")
	live, err := s.RunFleet(FleetConfig{RecordTo: path})
	if err != nil {
		t.Fatalf("fleet record: %v", err)
	}
	if h := campaignHash(t, live); h != goldenCampaignHash {
		t.Fatalf("recorded fleet hash %#x, want golden %#x", h, goldenCampaignHash)
	}
	for _, shards := range []int{1, 4} {
		res, err := s.RunFleet(FleetConfig{Shards: shards, ReplayFrom: path})
		if err != nil {
			t.Fatalf("shards=%d: fleet replay: %v", shards, err)
		}
		if h := campaignHash(t, res); h != goldenCampaignHash {
			t.Fatalf("shards=%d: replayed fleet hash %#x, want golden %#x", shards, h, goldenCampaignHash)
		}
	}
}
