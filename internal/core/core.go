// Package core is the library facade: one type that wires together the
// whole reproduction — kernel profile measurement on the POWER2 CPU model,
// the nine-month PBS workload campaign, and the analysis that regenerates
// every table and figure of Bergeron's SC'98 measurement study.
//
// Typical use:
//
//	sys := core.New(core.Config{Seed: 1})
//	res, err := sys.RunFleet(core.FleetConfig{}) // a fleet of one: the paper's campaign
//	fmt.Print(analysis.ComputeTable2(res).Render())
//
// RunFleet is the one way a System runs a campaign: a single machine is
// a fleet of one, bit-identical to the classic campaign, and the same
// call adds clusters, shards, checkpoints and trace record/replay.
//
// Lower layers remain importable for finer control: power2 (the CPU),
// hpm (the counter architecture), rs2hpm (the daemon/collector), mpi/hps
// (message passing), pbs (the batch system), workload (the campaign) and
// analysis (tables and figures).
package core

import (
	"fmt"
	"runtime"

	"repro/internal/faults"
	"repro/internal/profile"
	"repro/internal/spec"
	"repro/internal/units"
	"repro/internal/workload"
)

// Config selects the campaign scale. Zero values choose the paper's
// parameters (270 days, 144 nodes) with one engine worker per CPU.
type Config struct {
	Days  int
	Nodes int
	Seed  uint64
	// Workers is the parallelism for profile measurement and the campaign
	// engine; zero picks GOMAXPROCS, 1 forces the serial engine. Results
	// are bit-identical for every value.
	Workers int
	// Faults injects the default collection-fault mix (faults.Default)
	// into every cluster whose campaign declares no faults block of its
	// own; a spec's faults block takes precedence.
	Faults bool
}

// System is a configured reproduction: measured kernel profiles plus the
// campaign and analysis plumbing.
type System struct {
	cfg Config
	std profile.Standard
	mix workload.Mix
	// base is the spec-resolved campaign configuration when the system was
	// built with NewWithSpec; nil means the paper's DefaultConfig.
	base *workload.Config
	// sp is the source spec when built with NewWithSpec; the fleet path
	// re-resolves it per cluster (fleet blocks carry per-cluster
	// overrides a single Config cannot).
	sp *spec.Spec
	// daysSet/nodesSet record whether the caller's Config carried
	// explicit Days/Nodes — those override every cluster of a fleet,
	// while inherited values defer to per-cluster spec overrides.
	daysSet, nodesSet bool
}

// New measures the standard kernel profiles (a few hundred thousand
// simulated instructions each) and returns a ready System running the
// built-in paper-1996 workload.
func New(cfg Config) *System {
	daysSet, nodesSet := cfg.Days != 0, cfg.Nodes != 0
	if cfg.Days == 0 {
		cfg.Days = 270
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = units.NodeCount
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	std := profile.MeasureStandardWorkers(cfg.Seed, cfg.Workers)
	return &System{cfg: cfg, std: std, mix: workload.DefaultMix(std), daysSet: daysSet, nodesSet: nodesSet}
}

// NewWithSpec measures the standard kernel profiles and resolves the
// given workload spec against them: the declarative path into the same
// facade. Zero Config fields inherit the spec's campaign block rather
// than the paper's constants; Seed and Workers are always the caller's.
func NewWithSpec(cfg Config, sp *spec.Spec) (*System, error) {
	daysSet, nodesSet := cfg.Days != 0, cfg.Nodes != 0
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	std := profile.MeasureStandardWorkers(cfg.Seed, cfg.Workers)
	wc, mix, err := spec.Resolve(sp, std)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Days == 0 {
		cfg.Days = wc.Days
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = wc.Nodes
	}
	return &System{cfg: cfg, std: std, mix: mix, base: &wc, sp: sp, daysSet: daysSet, nodesSet: nodesSet}, nil
}

// Profiles exposes the measured kernel signatures.
func (s *System) Profiles() profile.Standard { return s.std }

// CampaignConfig returns the workload configuration the system will run.
func (s *System) CampaignConfig() workload.Config {
	wc := workload.DefaultConfig(s.cfg.Seed)
	if s.base != nil {
		wc = *s.base
		wc.Seed = s.cfg.Seed
	}
	wc.Days = s.cfg.Days
	wc.Nodes = s.cfg.Nodes
	wc.Workers = s.cfg.Workers
	s.injectFaults(&wc)
	return wc
}

// injectFaults applies Config.Faults to a campaign that declares none.
func (s *System) injectFaults(wc *workload.Config) {
	if s.cfg.Faults && wc.Faults == nil {
		f := faults.Default()
		wc.Faults = &f
	}
}
