package workload

// The fleet merge primitives' own contract, tested below the fleet
// runner: single-cluster folding is the identity (the golden-hash
// anchor), seeds are namespaced, and the multi-cluster fold is a pure,
// order-canonical function of its parts.

import (
	"reflect"
	"testing"

	"repro/internal/faults"
)

func TestClusterSeedAnchorsClusterZero(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 0xdeadbeef} {
		if got := ClusterSeed(seed, 0); got != seed {
			t.Fatalf("ClusterSeed(%d, 0) = %d, want the fleet seed unchanged", seed, got)
		}
	}
	seen := map[uint64]int{7: 0}
	for c := 1; c <= 64; c++ {
		s := ClusterSeed(7, c)
		if prev, dup := seen[s]; dup {
			t.Fatalf("ClusterSeed(7, %d) collides with cluster %d", c, prev)
		}
		seen[s] = c
	}
}

func TestMergeResultsSingleClusterIsIdentity(t *testing.T) {
	res := shortCampaign(t, 3, 11)
	merged := MergeResults([]Result{res})
	if !reflect.DeepEqual(res, merged) {
		t.Fatalf("single-cluster merge is not the identity:\n direct %+v\n merged %+v", res, merged)
	}
	if h1, h2 := resultHash(t, res), resultHash(t, merged); h1 != h2 {
		t.Fatalf("single-cluster merge changed the hash: %#x vs %#x", h2, h1)
	}
}

func TestMergeResultsSingleClusterIsIdentityFaulted(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Days = 2
	cfg.Faults = &faults.Config{
		CrashProbPerNodeDay: 0.05,
		MeanOutageTicks:     4,
		DropProbPerSample:   0.02,
	}
	res := NewCampaign(cfg, DefaultMix(std(t))).Run()
	if res.Coverage == nil {
		t.Fatal("faulted campaign produced no coverage report")
	}
	merged := MergeResults([]Result{res})
	if !reflect.DeepEqual(res, merged) {
		t.Fatal("single-cluster merge is not the identity under fault injection")
	}
	if err := merged.Coverage.Check(); err != nil {
		t.Fatalf("merged coverage ledger does not balance: %v", err)
	}
}

func TestMergeResultsFleetView(t *testing.T) {
	a := shortCampaign(t, 3, 21)
	cfgB := DefaultConfig(ClusterSeed(21, 1))
	cfgB.Days = 2
	b := NewCampaign(cfgB, DefaultMix(std(t))).Run()

	merged := MergeResults([]Result{a, b})
	if want := a.Config.Nodes + b.Config.Nodes; merged.Config.Nodes != want {
		t.Fatalf("fleet Nodes = %d, want the fleet total %d", merged.Config.Nodes, want)
	}
	if merged.Config.Days != 3 || len(merged.Days) != 3 {
		t.Fatalf("fleet Days = %d (%d rows), want the longest window 3", merged.Config.Days, len(merged.Days))
	}
	// Day 0 folds both clusters; day 2 is cluster a alone.
	if want := a.Days[0].BusyNodeSeconds + b.Days[0].BusyNodeSeconds; merged.Days[0].BusyNodeSeconds != want {
		t.Fatalf("day 0 busy = %v, want %v", merged.Days[0].BusyNodeSeconds, want)
	}
	if merged.Days[2].BusyNodeSeconds != a.Days[2].BusyNodeSeconds {
		t.Fatalf("day 2 should be cluster a alone")
	}
	if want := len(a.Records) + len(b.Records); len(merged.Records) != want {
		t.Fatalf("fleet records = %d, want %d", len(merged.Records), want)
	}
	if want := a.DroppedRecords + b.DroppedRecords; merged.DroppedRecords != want {
		t.Fatalf("fleet dropped = %d, want %d", merged.DroppedRecords, want)
	}
	max := a.MaxGflops15min
	if b.MaxGflops15min > max {
		max = b.MaxGflops15min
	}
	if merged.MaxGflops15min != max {
		t.Fatalf("fleet MaxGflops15min = %v, want %v", merged.MaxGflops15min, max)
	}
	// A fault-free fleet has no coverage report.
	if merged.Coverage != nil {
		t.Fatal("fault-free fleet grew a coverage report")
	}
}

func TestMergeFinalPanicsOnEmptyFleet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MergeFinal of no results did not panic")
		}
	}()
	MergeFinal(nil)
}

// A merged faulted ledger must pass the same cross-foot as a single
// campaign's: Check requires the total to equal the day-by-day sum of the
// rows exactly, LostNodeSeconds included, so the merged total has to be
// that sum, not the sum of the clusters' own totals. Seed 3 over 5 days
// is a fleet whose two sums differ in the last place.
func TestMergeResultsFaultedFleetLedgerChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster faulted campaigns")
	}
	parts := make([]Result, 4)
	for c := range parts {
		cfg := DefaultConfig(ClusterSeed(3, c))
		cfg.Days = 5
		fc := faults.Default()
		cfg.Faults = &fc
		parts[c] = NewCampaign(cfg, DefaultMix(std(t))).Run()
	}
	merged := MergeResults(parts)
	if merged.Coverage == nil {
		t.Fatal("faulted fleet produced no coverage report")
	}
	if err := merged.Coverage.Check(); err != nil {
		t.Fatalf("merged fleet ledger does not cross-foot: %v", err)
	}
}
