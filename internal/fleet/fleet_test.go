package fleet

// The fleet determinism contract, machine-checked: the merged Result is
// bit-identical for every shard count, bit-identical to running the
// campaign directly for a one-cluster fleet (the golden campaign hash,
// through serialization and back), and bit-identical across
// kill/resume cycles at every day boundary. These tests run under -race
// in CI's GOMAXPROCS matrix, so scheduler-order nondeterminism in the
// shard fan-out is hunted, not assumed away.

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenCampaignHash mirrors the unexported constant guarding
// internal/workload's TestGoldenCampaignHash: resultHash of the seed-7,
// 2-day default campaign, captured on the pre-optimization tree. The
// fleet path must reproduce it exactly — sharding is an execution knob,
// never a model change.
const goldenCampaignHash uint64 = 0x88ee6c33b8c0bd5c

func resultHash(t *testing.T, r workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(r); err != nil {
		t.Fatalf("hash result: %v", err)
	}
	return h.Sum64()
}

var (
	stdOnce sync.Once
	stdSet  profile.Standard
)

func std(t *testing.T) profile.Standard {
	t.Helper()
	stdOnce.Do(func() { stdSet = profile.MeasureStandard(1) })
	return stdSet
}

// goldenMember is the golden recipe as a fleet of one: standard profiles
// at seed 7, 2-day default campaign, the given engine worker count.
func goldenMember(workers int) Member {
	std := profile.MeasureStandardWorkers(7, workers)
	cfg := workload.DefaultConfig(7)
	cfg.Days = 2
	cfg.Workers = workers
	return Member{Config: cfg, Mix: workload.DefaultMix(std)}
}

// smallFleet builds a homogeneous fleet with per-cluster seeds derived
// from the fleet seed, short windows, default node count.
func smallFleet(t *testing.T, clusters, days int, seed uint64) []Member {
	t.Helper()
	members := make([]Member, clusters)
	for c := range members {
		cfg := workload.DefaultConfig(workload.ClusterSeed(seed, c))
		cfg.Days = days
		members[c] = Member{Config: cfg, Mix: workload.DefaultMix(std(t))}
	}
	return members
}

func TestGoldenFleetCampaignHash(t *testing.T) {
	if testing.Short() {
		t.Skip("golden fleet campaign is a full 2-day simulation per case")
	}
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 2, 8} {
			res, err := Run([]Member{goldenMember(workers)}, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if h := resultHash(t, res); h != goldenCampaignHash {
				t.Fatalf("shards=%d workers=%d: fleet hash %#x, want golden %#x — the fleet path changed observable behaviour",
					shards, workers, h, goldenCampaignHash)
			}
		}
	}

	// Checkpoint/resume cycle: the first run persists the completed
	// cluster; the resumed run restores it from disk — the whole Result
	// round-trips through the gzip JSON envelope — and must still hash to
	// the same golden constant, at a different shard and worker count.
	path := filepath.Join(t.TempDir(), "golden.ckpt.gz")
	if _, err := Run([]Member{goldenMember(1)}, Options{Shards: 2, Checkpoint: path}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	res, err := Run([]Member{goldenMember(8)}, Options{Shards: 8, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if h := resultHash(t, res); h != goldenCampaignHash {
		t.Fatalf("resumed fleet hash %#x, want golden %#x — the checkpoint round-trip changed bits", h, goldenCampaignHash)
	}
}

func TestFleetShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	members := smallFleet(t, 4, 2, 42)
	base, err := Run(members, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := resultHash(t, base)

	// Cross-check the merge tree against clusters run directly on the
	// campaign engine and folded offline.
	parts := make([]workload.Result, len(members))
	for c := range members {
		parts[c] = workload.NewCampaign(members[c].Config, members[c].Mix).Run()
	}
	if h := resultHash(t, workload.MergeResults(parts)); h != want {
		t.Fatalf("offline merge hash %#x differs from fleet run %#x", h, want)
	}

	for _, shards := range []int{2, 4, 7} {
		res, err := Run(members, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if h := resultHash(t, res); h != want {
			t.Fatalf("shards=%d hash %#x differs from shards=1 %#x", shards, h, want)
		}
	}
}

// The kill/resume equivalence satellite: checkpoint at every day
// boundary, halt mid-campaign (twice), resume, and require the merged
// Result to hash identically to the uninterrupted run — for shard counts
// 1 and 4.
func TestFleetKillResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	members := smallFleet(t, 4, 2, 1234)
	for _, shards := range []int{1, 4} {
		uninterrupted, err := Run(members, Options{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: uninterrupted: %v", shards, err)
		}
		want := resultHash(t, uninterrupted)

		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		opts := Options{Shards: shards, Checkpoint: path, CheckpointEachDay: true, HaltAfter: 1}
		if _, err := Run(members, opts); !errors.Is(err, ErrHalted) {
			t.Fatalf("shards=%d: first kill: got %v, want ErrHalted", shards, err)
		}
		opts.Resume = true
		// A second partial cycle, unless the first already completed every
		// cluster (with 4 shards all clusters are in flight at the halt).
		if cp, err := trace.ReadFleetCheckpointFile(path); err != nil {
			t.Fatalf("shards=%d: checkpoint unreadable between runs: %v", shards, err)
		} else if len(cp.Done) < len(members) {
			if _, err := Run(members, opts); !errors.Is(err, ErrHalted) {
				t.Fatalf("shards=%d: second kill: got %v, want ErrHalted", shards, err)
			}
		}
		opts.HaltAfter = 0
		res, err := Run(members, opts)
		if err != nil {
			t.Fatalf("shards=%d: final resume: %v", shards, err)
		}
		if h := resultHash(t, res); h != want {
			t.Fatalf("shards=%d: resumed hash %#x, uninterrupted %#x — kill/resume changed bits", shards, h, want)
		}
	}
}

// recorder captures the merged stream a sink receives.
type recorder struct {
	days   []workload.Day
	finals []workload.Final
}

func (r *recorder) ReduceDay(d workload.Day) { r.days = append(r.days, d) }
func (r *recorder) Finish(f workload.Final)  { r.finals = append(r.finals, f) }

func TestFleetStreamsMergedDaysToSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster fleet simulation")
	}
	// Ragged fleet: cluster windows of different lengths exercise the
	// frontier on days only some clusters cover.
	members := smallFleet(t, 2, 3, 77)
	members[1].Config.Days = 1

	var rec recorder
	res, err := Run(members, Options{Shards: 2}, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.finals) != 1 {
		t.Fatalf("sink saw %d Finish calls, want 1", len(rec.finals))
	}
	if len(rec.days) != 3 {
		t.Fatalf("sink saw %d merged days, want 3", len(rec.days))
	}
	for i, d := range rec.days {
		if d.Index != i {
			t.Fatalf("merged day %d has index %d — stream out of order", i, d.Index)
		}
	}
	wantNodes := members[0].Config.Nodes + members[1].Config.Nodes
	if rec.finals[0].Config.Nodes != wantNodes {
		t.Fatalf("fleet Final Nodes = %d, want %d", rec.finals[0].Config.Nodes, wantNodes)
	}
	// The returned Result is exactly the stream the sinks saw.
	for i := range rec.days {
		if rec.days[i] != res.Days[i] {
			t.Fatalf("day %d: sink stream and merged Result disagree", i)
		}
	}
}

func TestFleetRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	members := smallFleet(t, 1, 1, 5)
	if _, err := Run(members, Options{Resume: true}); err == nil {
		t.Fatal("Resume without Checkpoint accepted")
	}
	if _, err := Run(members, Options{Resume: true, Checkpoint: filepath.Join(t.TempDir(), "absent.ckpt")}); err == nil {
		t.Fatal("Resume from a missing checkpoint accepted")
	}
	// An unwritable checkpoint path must fail before any cluster runs.
	if _, err := Run(members, Options{Checkpoint: filepath.Join(t.TempDir(), "no-such-dir", "fleet.ckpt")}); err == nil {
		t.Fatal("unwritable checkpoint path accepted")
	}
}

func TestFleetResumeRejectsForeignCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a short campaign to produce a checkpoint")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	members := smallFleet(t, 2, 1, 5)
	opts := Options{Checkpoint: path, HaltAfter: 1}
	if _, err := Run(members, opts); !errors.Is(err, ErrHalted) {
		t.Fatalf("got %v, want ErrHalted", err)
	}
	// A different fleet definition (different seed) must refuse the file.
	other := smallFleet(t, 2, 1, 6)
	if _, err := Run(other, Options{Checkpoint: path, Resume: true}); err == nil {
		t.Fatal("checkpoint from a different fleet accepted")
	}
	// Corrupt bytes must refuse cleanly too.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(members, Options{Checkpoint: path, Resume: true}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

func TestFleetIDIgnoresExecutionKnobs(t *testing.T) {
	a := smallFleet(t, 2, 1, 9)
	b := smallFleet(t, 2, 1, 9)
	b[0].Config.Workers = 16
	b[1].Config.Scenario = "renamed"
	if ID(a) != ID(b) {
		t.Fatal("fleet ID depends on Workers/Scenario — resume would break across shard/worker changes")
	}
	c := smallFleet(t, 2, 1, 10)
	if ID(a) == ID(c) {
		t.Fatal("different fleet definitions share an ID")
	}
}
