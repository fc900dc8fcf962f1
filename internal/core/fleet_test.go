package core

// The fleet facade: member construction (seeds, replication, spec fleet
// blocks, explicit-override precedence) and a short end-to-end RunFleet.

import (
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/workload"
)

func TestFleetMembersReplicatesBaseCampaign(t *testing.T) {
	s := system(t)
	members, err := s.FleetMembers(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("got %d members, want 3", len(members))
	}
	base := s.CampaignConfig()
	for i, m := range members {
		want := base
		want.Seed = workload.ClusterSeed(base.Seed, i)
		if m.Config != want {
			t.Errorf("member %d config:\n got %+v\nwant %+v", i, m.Config, want)
		}
	}
	if members[0].Config.Seed != base.Seed {
		t.Fatalf("cluster 0 seed = %d, want the campaign seed %d (identity)", members[0].Config.Seed, base.Seed)
	}
	one, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Config != base {
		t.Fatalf("spec-less fleet of one must be the campaign itself, got %+v", one)
	}
}

func burstyFleetSpec(t *testing.T) *spec.Spec {
	t.Helper()
	sp, err := spec.Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	sp.Fleet = &spec.FleetBlock{
		Clusters:  2,
		Overrides: []spec.ClusterOverride{{Cluster: 1, Days: 1, Nodes: 128}},
	}
	return sp
}

func TestFleetMembersFromSpecFleetBlock(t *testing.T) {
	s, err := NewWithSpec(Config{Seed: 4}, burstyFleetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	members, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("got %d members, want 2", len(members))
	}
	if c := members[0].Config; c.Days != 90 || c.Nodes != 144 {
		t.Fatalf("cluster 0 must inherit the campaign block (90 days, 144 nodes): %+v", c)
	}
	if c := members[1].Config; c.Days != 1 || c.Nodes != 128 {
		t.Fatalf("cluster 1 override (1 day, 128 nodes) not applied: %+v", c)
	}
	for i, m := range members {
		if m.Config.Seed != workload.ClusterSeed(4, i) {
			t.Errorf("member %d seed = %d, want ClusterSeed(4, %d)", i, m.Config.Seed, i)
		}
	}
	// An explicit member count redefines the fleet: homogeneous copies.
	four, err := s.FleetMembers(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(four) != 4 {
		t.Fatalf("got %d members, want 4", len(four))
	}
	if c := four[1].Config; c.Days != 90 || c.Nodes != 144 {
		t.Fatalf("explicit cluster count must drop per-cluster overrides: %+v", c)
	}

	// Config.Faults reaches every member of a spec fleet that declares
	// no faults block of its own.
	paper, err := spec.Preset("paper-1996")
	if err != nil {
		t.Fatal(err)
	}
	paper.Fleet = &spec.FleetBlock{Clusters: 2}
	faulted, err := NewWithSpec(Config{Seed: 4, Faults: true}, paper)
	if err != nil {
		t.Fatal(err)
	}
	members, err = faulted.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Config.Faults == nil {
			t.Errorf("member %d: Config.Faults did not inject the default fault mix", i)
		}
	}
}

// TestRunFleetWithSpecOverrides drives the whole stack: explicit Days
// override every cluster of the fleet, and the merged reduction streams
// out with summed capacity.
func TestRunFleetWithSpecOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run in -short mode")
	}
	s, err := NewWithSpec(Config{Seed: 4, Days: 2}, burstyFleetSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	members, err := s.FleetMembers(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if m.Config.Days != 2 {
			t.Fatalf("explicit -days must override cluster %d, got %d", i, m.Config.Days)
		}
	}
	res, err := s.RunFleet(FleetConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 2 {
		t.Fatalf("merged days = %d, want 2", len(res.Days))
	}
	if res.Config.Nodes != 144+128 {
		t.Fatalf("merged nodes = %d, want the fleet's 272", res.Config.Nodes)
	}
	if res.Config.Scenario != "bursty" {
		t.Fatalf("scenario = %q, want bursty", res.Config.Scenario)
	}
}

// TestFleetOfOneIsTheCampaign pins what the single run path rests on:
// with no fleet shape, RunFleet is a fleet of one and must land on the
// same bits as running the system's campaign directly — for every
// committed preset and for the default mix with injected faults.
func TestFleetOfOneIsTheCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("two 2-day campaigns per case")
	}
	cases := map[string]func() (*System, error){
		"default+faults": func() (*System, error) {
			return New(Config{Days: 2, Seed: 5, Workers: 1, Faults: true}), nil
		},
	}
	for _, name := range spec.PresetNames() {
		cases[name] = func() (*System, error) {
			sp, err := spec.Preset(name)
			if err != nil {
				return nil, err
			}
			return NewWithSpec(Config{Days: 2, Seed: 5, Workers: 1}, sp)
		}
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if name == "default+faults" && s.CampaignConfig().Faults == nil {
				t.Fatal("Config.Faults did not reach the campaign config")
			}
			got, err := s.RunFleet(FleetConfig{})
			if err != nil {
				t.Fatal(err)
			}
			want := workload.NewCampaign(s.CampaignConfig(), s.mix).Run()
			if g, w := campaignHash(t, got), campaignHash(t, want); g != w {
				t.Fatalf("fleet of one hashes %#x, the campaign itself %#x", g, w)
			}
		})
	}
}

// TestFleetMembersRejectsBadGeometry: a member the campaign could not
// run is a field-path error from FleetMembers, never a panic mid-run.
func TestFleetMembersRejectsBadGeometry(t *testing.T) {
	base := system(t)
	with := func(edit func(s *System)) *System {
		s := *base
		s.mix.Clients = append([]workload.Client(nil), base.mix.Clients...)
		edit(&s)
		return &s
	}
	override := func(weights ...float64) func(s *System) {
		return func(s *System) {
			s.mix.Clients[1].JobSize = &workload.SizeDist{Counts: []int{4, 200}, Weights: weights}
		}
	}
	cases := []struct {
		name string
		sys  *System
		want string // "" means the fleet is valid
	}{
		{"paper", base, ""},
		{"days-negative", with(func(s *System) { s.cfg.Days = -1 }), "clusters[0].days: must be >= 1"},
		{"nodes-zero", with(func(s *System) { s.cfg.Nodes = 0 }), "clusters[0].nodes: must be >= 1"},
		{"nodes-below-largest-job", with(func(s *System) { s.cfg.Nodes = 8 }), "clusters[0].nodes: must hold the largest job (job_size: 128 nodes), got 8"},
		{"client-override-too-large", with(override(1, 0.5)), "clients[1].job_size: 200 nodes"},
		{"client-override-zero-weight", with(override(1, 0)), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.sys.FleetMembers(0)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid fleet rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}

	// Per-cluster spec overrides are checked member by member.
	sp := burstyFleetSpec(t)
	sp.Fleet.Overrides[0].Nodes = 64
	s, err := NewWithSpec(Config{Seed: 4}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FleetMembers(0); err == nil || !strings.Contains(err.Error(), "clusters[1].nodes") {
		t.Fatalf("64-node cluster 1 accepted for a mix with 128-node jobs: %v", err)
	}
}
