package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hpm"
	"repro/internal/rs2hpm"
	"repro/internal/spec"
	"repro/internal/workload"
)

var (
	sysOnce sync.Once
	sys     *System
)

func system(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() { sys = New(Config{Days: 20, Seed: 3}) })
	return sys
}

func TestDefaultsFillIn(t *testing.T) {
	s := system(t)
	wc := s.CampaignConfig()
	if wc.Days != 20 {
		t.Fatalf("days = %d", wc.Days)
	}
	if wc.Nodes != 144 {
		t.Fatalf("nodes = %d, want the SP2's 144", wc.Nodes)
	}
}

// TestNewWithSpec drives the declarative path through the facade: a
// committed preset, config overrides on top of the spec's campaign
// block, and a short end-to-end run.
func TestNewWithSpec(t *testing.T) {
	sp, err := spec.Preset("bursty")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithSpec(Config{Days: 2, Seed: 3}, sp)
	if err != nil {
		t.Fatal(err)
	}
	wc := s.CampaignConfig()
	if wc.Days != 2 {
		t.Fatalf("days = %d, want the override 2", wc.Days)
	}
	if wc.Nodes != 144 {
		t.Fatalf("nodes = %d, want the spec's 144", wc.Nodes)
	}
	if wc.Scenario != "bursty" {
		t.Fatalf("scenario = %q, want bursty", wc.Scenario)
	}
	if wc.Faults == nil {
		t.Fatal("bursty preset declares a faults block; it must survive resolution")
	}
	if testing.Short() {
		return
	}
	res, err := s.RunFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 2 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.Coverage == nil {
		t.Fatal("faulted campaign must report coverage")
	}
}

func TestProfilesOrdered(t *testing.T) {
	p := system(t).Profiles()
	if !(p.CFD.Mflops < p.BT.Mflops && p.BT.Mflops < p.MatMul.Mflops) {
		t.Fatalf("profile ordering: %v %v %v", p.CFD.Mflops, p.BT.Mflops, p.MatMul.Mflops)
	}
}

// TestLiveMonitoringDuringCampaign runs the RS2HPM daemon over the
// campaign's nodes while the campaign executes, sampling over TCP from a
// concurrent collector — the deployment topology of the paper (cron
// sampling a live machine). Counter reads must be race-free and
// monotonically non-decreasing.
func TestLiveMonitoringDuringCampaign(t *testing.T) {
	cfg := workload.DefaultConfig(21)
	cfg.Days = 3
	camp := workload.NewCampaign(cfg, workload.DefaultMix(system(t).Profiles()))

	daemon := rs2hpm.NewDaemon()
	for _, nd := range camp.Nodes()[:8] {
		daemon.AddSource(nd)
	}
	addr, err := daemon.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer daemon.Close()

	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		client, err := rs2hpm.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer client.Close()
		last := map[int]uint64{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := 0; id < 8; id++ {
				c, err := client.Counters(id)
				if err != nil {
					errs <- err
					return
				}
				cyc := c.Get(hpm.User, hpm.EvCycles) + c.Get(hpm.System, hpm.EvCycles)
				if cyc < last[id] {
					errs <- fmt.Errorf("node %d cycles went backwards: %d < %d", id, cyc, last[id])
					return
				}
				last[id] = cyc
			}
		}
	}()

	res := camp.Run()
	close(stop)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(res.Days) != 3 {
		t.Fatalf("days = %d", len(res.Days))
	}
}
