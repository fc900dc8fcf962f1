// Package cli is the command-line layer cmd/spsim and cmd/experiments
// share: the campaign flags both accept, their validation and conflict
// checks, -list-presets, the pprof and profile-cache plumbing, and the
// one call that runs a campaign — core.System.RunFleet. A command's main
// registers these flags next to its own, parses, and walks the same
// steps:
//
//	c := cli.Register("spsim", flag.CommandLine)
//	flag.Parse()
//	c.Check()          // malformed flags exit 2; -list-presets exits 0
//	defer c.Start()()  // -spec, -replay probe, -cpuprofile, -profile-cache
//	f := c.Fleet()     // measure kernels, resolve and validate the members
//	res, ok := f.Run(sinks...)
//
// Every campaign is a fleet. Its shape resolves in this order: -clusters
// N runs N copies of the base campaign; otherwise a spec's fleet block
// sets it; otherwise it is a fleet of one, bit-identical to the classic
// single-machine campaign. Its day plans come from -replay's trace when
// given, else from the generators (-record tees them into a trace), and
// -resume first restores the clusters -checkpoint records as complete.
// Explicit -days/-nodes override every cluster; left at their defaults
// they defer to the spec.
//
// Failures follow the hpmlint exit-code convention: 2 for a malformed
// invocation (a bad flag, spec or campaign geometry), 1 for a runtime
// failure (an unreadable trace or checkpoint, a failed write).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Campaign is the flag set shared by every command that runs a campaign.
// The exported fields are the flags a main reads itself.
type Campaign struct {
	// Seed is -seed: the campaign seed, which also seeds the analysis-side
	// microsims.
	Seed uint64
	// Spec is -spec: a committed preset name or a JSON file path.
	Spec string
	// Telemetry is -telemetry: "", "text" or "json".
	Telemetry string
	// Record is -record: the trace the run's generated plans go to.
	Record string

	prog                                 string
	fs                                   *flag.FlagSet
	days, nodes, workers                 int
	clusters, shards, haltAfter          int
	listPresets, faults, resume          bool
	checkpoint, replayFrom               string
	profileCache, cpuProfile, memProfile string
	sp                                   *spec.Spec
}

// Register declares the shared campaign flags on fs; prog prefixes every
// error message.
func Register(prog string, fs *flag.FlagSet) *Campaign {
	c := &Campaign{prog: prog, fs: fs}
	fs.IntVar(&c.days, "days", 270, "campaign length in days")
	fs.IntVar(&c.nodes, "nodes", 144, "cluster size")
	fs.Uint64Var(&c.Seed, "seed", 1, "campaign random seed")
	fs.IntVar(&c.workers, "workers", runtime.GOMAXPROCS(0), "engine worker goroutines (1 = serial; results are seed-identical at any setting)")
	fs.StringVar(&c.Spec, "spec", "", "workload spec: a committed preset name (see -list-presets) or a JSON file path")
	fs.BoolVar(&c.listPresets, "list-presets", false, "list the committed workload-spec presets and exit")
	fs.BoolVar(&c.faults, "faults", false, "inject the default collection-fault mix (crashes, cron misses, daemon restarts) and report coverage; a spec's own faults block takes precedence")
	fs.IntVar(&c.clusters, "clusters", 0, "fleet size: run this many copies of the campaign as a multi-cluster fleet; 0 defers to the spec's fleet block (or a single cluster)")
	fs.IntVar(&c.shards, "shards", 1, "fleet shards: cluster-level workers, each owning its own engine pool (results are identical at any setting)")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "fleet checkpoint file (.json or .json.gz), written as clusters complete")
	fs.BoolVar(&c.resume, "resume", false, "resume the fleet campaign recorded in -checkpoint")
	fs.IntVar(&c.haltAfter, "halt-after", 0, "stop the fleet after this many cluster completions (smoke/testing; requires -checkpoint)")
	fs.StringVar(&c.Record, "record", "", "record the campaign's generated plans (and resolved fault schedules) to a trace here (always gzip); replaying it reproduces this run bit for bit")
	fs.StringVar(&c.replayFrom, "replay", "", "re-simulate a recorded campaign trace instead of generating plans; the trace must match the campaign definition (exit 1 on corruption or mismatch)")
	fs.StringVar(&c.profileCache, "profile-cache", "", "persist kernel measurements here (.json or .json.gz) and reuse them on later runs")
	fs.StringVar(&c.Telemetry, "telemetry", "", `append the hpmtel self-measurement snapshot after the output ("text" or "json")`)
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile here on exit")
	return c
}

// usageError marks a malformed invocation: exit status 2.
type usageError struct{ error }

// Usagef formats a malformed-invocation error for Fatal.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// Fatal reports err under the program name and exits: 2 for a Usagef
// error, 1 for anything else.
func (c *Campaign) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// given reports whether the named flag was set on the command line.
func (c *Campaign) given(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// RunFlag names the first run-shaping flag given on the command line
// (fleet shape, checkpointing, record/replay), or "" if none was: those
// flags describe a campaign run, so a command that can skip the run
// rejects them.
func (c *Campaign) RunFlag() string {
	for _, name := range []string{"clusters", "shards", "checkpoint", "resume", "halt-after", "record", "replay"} {
		if c.given(name) {
			return name
		}
	}
	return ""
}

// Check rejects a malformed flag combination with exit 2 and serves
// -list-presets (exit 0). Call it right after parsing.
func (c *Campaign) Check() {
	if err := c.check(); err != nil {
		c.Fatal(err)
	}
	if c.listPresets {
		for _, name := range spec.PresetNames() {
			s, err := spec.Preset(name)
			if err != nil {
				c.Fatal(err)
			}
			fmt.Printf("%-14s %s\n", name, s.Description)
		}
		os.Exit(0)
	}
}

func (c *Campaign) check() error {
	switch {
	case c.given("days") && c.days < 1:
		return Usagef("%v", spec.FieldError{Path: "-days", Msg: fmt.Sprintf("must be >= 1 (got %d)", c.days)})
	case c.given("nodes") && c.nodes < 1:
		return Usagef("%v", spec.FieldError{Path: "-nodes", Msg: fmt.Sprintf("must be >= 1 (got %d)", c.nodes)})
	case c.Telemetry != "" && c.Telemetry != "text" && c.Telemetry != "json":
		return Usagef("-telemetry must be \"text\" or \"json\", got %q", c.Telemetry)
	case c.shards < 1:
		return Usagef("-shards must be >= 1, got %d", c.shards)
	case c.clusters < 0:
		return Usagef("-clusters must be >= 0, got %d", c.clusters)
	case c.haltAfter < 0:
		return Usagef("-halt-after must be >= 0, got %d", c.haltAfter)
	case c.resume && c.checkpoint == "":
		return Usagef("-resume requires -checkpoint")
	case c.haltAfter > 0 && c.checkpoint == "":
		return Usagef("-halt-after requires -checkpoint")
	// A useful trace is a complete trace: recording rejects every mode
	// that would leave some day ungenerated (mirrors fleet.Options).
	case c.Record != "" && c.replayFrom != "":
		return Usagef("-record cannot be combined with -replay (a replay would only copy the trace)")
	case c.Record != "" && c.resume:
		return Usagef("-record cannot be combined with -resume (restored clusters never regenerate, so the trace would be incomplete)")
	case c.Record != "" && c.haltAfter > 0:
		return Usagef("-record cannot be combined with -halt-after (a halted run records an incomplete trace)")
	}
	return nil
}

// Start loads -spec and probes the -replay trace before any kernel
// measurement, so a typo (exit 2) or a corrupt trace (exit 1) fails in
// milliseconds; then it starts -cpuprofile and warms the measurement
// store from -profile-cache. Defer the returned stop: it persists the
// cache, writes -memprofile and stops the CPU profile, exiting 1 if a
// write fails.
func (c *Campaign) Start() (stop func()) {
	if c.Spec != "" {
		sp, err := spec.Load(c.Spec)
		if err != nil {
			c.Fatal(usageError{err})
		}
		c.sp = sp
	}
	// The definition-mismatch check needs the resolved members and runs
	// inside the fleet engine.
	if c.replayFrom != "" {
		if _, err := replay.OpenFile(c.replayFrom); err != nil {
			c.Fatal(err)
		}
	}
	stopCPU, err := startCPUProfile(c.cpuProfile)
	if err != nil {
		c.Fatal(err)
	}
	if c.profileCache != "" {
		// A missing cache file is a cold start, not an error.
		if err := trace.LoadProfileCacheFile(c.profileCache, profile.DefaultStore); err != nil {
			c.Fatal(err)
		}
	}
	return func() {
		// The cache is written back after the run, so every measurement
		// the process made — campaign and analysis alike — persists.
		var err error
		if c.profileCache != "" {
			err = trace.WriteProfileCacheFile(c.profileCache, profile.DefaultStore)
		}
		err = errors.Join(err, writeMemProfile(c.memProfile))
		stopCPU()
		if err != nil {
			c.Fatal(err)
		}
	}
}

// WriteTelemetry appends snap in the -telemetry format under its own
// heading; without -telemetry it does nothing.
func (c *Campaign) WriteTelemetry(snap telemetry.Snapshot) {
	if c.Telemetry == "" {
		return
	}
	fmt.Printf("\n=== telemetry (hpmtel) ===\n")
	write := snap.WriteText
	if c.Telemetry == "json" {
		write = snap.WriteJSON
	}
	if err := write(os.Stdout); err != nil {
		c.Fatal(err)
	}
}

// Fleet is a campaign ready to run: the measured System and the members
// the flags resolved to.
type Fleet struct {
	c       *Campaign
	sys     *core.System
	members []fleet.Member
}

// Fleet measures the standard kernel profiles and resolves the campaign
// the flags describe into its fleet members. A spec that fails to
// resolve, or a member whose geometry cannot run (an empty window or
// cluster, a job larger than the cluster), exits 2.
func (c *Campaign) Fleet() *Fleet {
	cfg := core.Config{Seed: c.Seed, Workers: c.workers, Faults: c.faults}
	if c.given("days") {
		cfg.Days = c.days
	}
	if c.given("nodes") {
		cfg.Nodes = c.nodes
	}
	f := &Fleet{c: c}
	var err error
	if c.sp != nil {
		f.sys, err = core.NewWithSpec(cfg, c.sp)
	} else {
		f.sys = core.New(cfg)
	}
	if err != nil {
		c.Fatal(usageError{err})
	}
	if f.members, err = f.sys.FleetMembers(c.clusters); err != nil {
		c.Fatal(usageError{err})
	}
	return f
}

// Nodes is the fleet's total node count.
func (f *Fleet) Nodes() int {
	n := 0
	for _, m := range f.members {
		n += m.Config.Nodes
	}
	return n
}

// header announces the run: the classic one-machine wording for a fleet
// of one, the fleet shape otherwise.
func (f *Fleet) header() string {
	verb := "running"
	if f.c.replayFrom != "" {
		verb = "replaying"
	}
	first := f.members[0].Config
	scenario := ""
	if first.Scenario != "" {
		scenario = fmt.Sprintf(" [scenario %s]", first.Scenario)
	}
	if len(f.members) == 1 {
		return fmt.Sprintf("%s a %d-day campaign on %d nodes (seed %d, %d workers)%s...",
			verb, first.Days, first.Nodes, f.c.Seed, first.Workers, scenario)
	}
	return fmt.Sprintf("%s a %d-cluster fleet campaign (%d nodes total, seed %d, %d shards, %d workers each)%s...",
		verb, len(f.members), f.Nodes(), f.c.Seed, f.c.shards, first.Workers, scenario)
}

// Run announces the campaign on stdout and runs it through
// core.System.RunFleet, streaming the merged reduction into sinks. A run
// stopped by -halt-after reports where its progress is and returns
// ok=false; any other failure exits 1.
func (f *Fleet) Run(sinks ...workload.Reducer) (res workload.Result, ok bool) {
	c := f.c
	fmt.Println(f.header())
	res, err := f.sys.RunFleet(core.FleetConfig{
		Clusters:   c.clusters,
		Shards:     c.shards,
		Checkpoint: c.checkpoint,
		Resume:     c.resume,
		HaltAfter:  c.haltAfter,
		RecordTo:   c.Record,
		ReplayFrom: c.replayFrom,
	}, sinks...)
	switch {
	case errors.Is(err, fleet.ErrHalted):
		fmt.Printf("fleet halted after %d cluster completion(s); %s holds the partial campaign — rerun with -resume to continue\n",
			c.haltAfter, c.checkpoint)
		return res, false
	case err != nil:
		c.Fatal(err)
	}
	return res, true
}
