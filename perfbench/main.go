// Command perfbench is the repository's benchmark: four end-to-end
// workloads that mirror the commands users run, each checked for correct
// output, plus a traced run that breaks each workload's wall time down by
// layer. See README.md in this directory.
//
// Usage, from the repository root:
//
//	perfbench --workload paper-campaign --seed 1 --seconds 30 --trace 0
//
// A run repeats the workload, one fresh child process per repetition,
// while another repetition fits in --seconds, then prints a run manifest
// line and, as the last line of standard output, one JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics (medians over repetitions,
// telemetry off, times scaled to the reference host's speed; see
// calibrate.go); --trace 1 alternates untraced and traced repetitions
// and reports the per-layer metrics. The exit code is 1 when any check
// failed, 2 for bad flags.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runBudget caps one run, repetitions and set-up together, below the
// three minutes a run may take.
const runBudget = 170 * time.Second

// maxFailures caps the failure messages carried into the manifest.
const maxFailures = 10

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 30, "measure for this many seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root")
	child := flag.Bool("child", false, "run a single repetition and print it as JSON (used by the run itself)")
	traced := flag.Bool("traced", false, "with -child: trace the repetition")
	dir := flag.String("dir", "", "with -child: directory for the artifacts the workload writes")
	db := flag.String("db", "", "with -child: the campaign database analysis-from-db reads")
	dbHash := flag.Uint64("db-hash", 0, "with -child: the hash of the Result written to -db")
	ref := flag.Bool("reference", false, "run the host-speed reference once (used by the run itself)")
	flag.Parse()

	if *ref {
		if referenceProcess() < 0 {
			os.Exit(1)
		}
		return
	}

	if !known(*name) {
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %s\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	p := params{
		seed:   *seed,
		days:   campaignDays,
		dir:    *dir,
		root:   *root,
		db:     *db,
		dbHash: *dbHash,
		shards: runtime.NumCPU(),
		traced: *traced,
	}
	if *child {
		r, err := runRep(*name, p)
		if err == nil {
			r.PeakRSSMB, err = peakRSSMB()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	res, man, err := run(*name, p, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"manifest": man}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, f := range man.Failures {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
		}
		os.Exit(1)
	}
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// result is the run's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest records what produced a result.
type manifest struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Telemetry  string   `json:"telemetry"`
	Reps       int      `json:"repetitions"`
	TracedReps int      `json:"traced_repetitions"`
	Seconds    float64  `json:"seconds"`
	ReferenceS float64  `json:"reference_s"`
	SpeedScale float64  `json:"speed_scale"`
	RawWallS   float64  `json:"raw_wall_s"`
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Revision   string   `json:"vcs_revision"`
	Modified   string   `json:"vcs_modified"`
	Sizes      string   `json:"sizes"`
	Failures   []string `json:"failures,omitempty"`
}

// run measures one workload: the golden preflight, the inputs, then
// repetitions, each after a timing of the host-speed reference, until the
// measuring time is spent.
func run(name string, p params, measure time.Duration, traceRun bool) (result, manifest, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	man := newManifest(name, p.seed, traceRun)
	var res result

	build := filepath.Join(p.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return res, man, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return res, man, err
	}
	defer os.RemoveAll(work)
	p.dir = work

	var failures []string
	tally := func(attempted, failed int, msgs ...string) {
		res.Attempted += attempted
		res.Failed += failed
		failures = append(failures, msgs...)
	}
	golden, err := goldenCampaign()
	if err != nil {
		return res, man, err
	}
	if err := checkGolden(golden, goldenHash); err != nil {
		tally(1, 1, err.Error())
	} else {
		tally(1, 0)
	}
	if name == "analysis-from-db" {
		p.db = filepath.Join(work, "campaign.json.gz")
		if p.dbHash, err = makeDatabase(p.seed, p.days, p.db); err != nil {
			return res, man, err
		}
	}

	exe, err := os.Executable()
	if err != nil {
		return res, man, err
	}
	var plain, traced []rep
	var refs []float64
	if _, err := reference(ctx, exe); err != nil { // warm-up
		return res, man, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		p.traced = traceRun && i%2 == 1
		d, err := reference(ctx, exe)
		if err != nil {
			return res, man, err
		}
		refs = append(refs, d.Seconds())
		r, err := runChild(ctx, exe, name, p)
		if err != nil {
			return res, man, err
		}
		tally(r.Attempted, r.Failed, r.Failures...)
		if p.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop before a repetition of average length would overrun the
		// measuring time.
		enough := len(plain) >= 3 && (!traceRun || len(traced) >= 3)
		spent := time.Since(start)
		if enough && spent+spent/time.Duration(i+1) > measure {
			break
		}
	}
	man.Seconds = time.Since(start).Seconds()
	man.Reps, man.TracedReps = len(plain), len(traced)
	man.ReferenceS = median(refs)
	man.SpeedScale = refNominalS / man.ReferenceS
	man.RawWallS = median(walls(plain))

	// The same seed must give the same Result on every repetition.
	if name == "paper-campaign" || name == "fleet-faulted" {
		all := append(append([]rep(nil), plain...), traced...)
		bad := 0
		for _, r := range all[1:] {
			if r.Hash != all[0].Hash {
				bad++
			}
		}
		msg := []string(nil)
		if bad > 0 {
			msg = append(msg, fmt.Sprintf("%d of %d repetitions hashed differently from the first (%#x)", bad, len(all), all[0].Hash))
		}
		tally(len(all)-1, bad, msg...)
	}

	res.Correct = res.Failed == 0
	if len(failures) > maxFailures {
		failures = failures[:maxFailures]
	}
	man.Failures = failures
	if traceRun {
		res.Metrics = layerMetrics(plain, traced, float64(res.Failed)/float64(res.Attempted))
	} else {
		res.Metrics = endToEndMetrics(plain, man.SpeedScale)
	}
	return res, man, nil
}

// runChild runs one repetition in a fresh process and reads its report.
func runChild(ctx context.Context, exe, name string, p params) (rep, error) {
	args := []string{
		"-child", "-workload", name,
		"-seed", strconv.FormatUint(p.seed, 10),
		"-root", p.root,
		"-dir", p.dir,
		"-traced=" + strconv.FormatBool(p.traced),
	}
	if p.db != "" {
		args = append(args, "-db", p.db, "-db-hash", strconv.FormatUint(p.dbHash, 10))
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	// The repetition dies with the run, even if the run is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	var r rep
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return rep{}, fmt.Errorf("%s repetition: %w", name, err)
	}
	return r, nil
}

// peakRSSMB reads this process's peak resident memory (VmHWM). The
// child's rusage would not do: Linux carries the parent's high-water mark
// across the fork and exec into ru_maxrss, and the parent holds the
// generated inputs.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// endToEndMetrics reduces untraced repetitions to their medians, with
// times multiplied by scale, the host's speed relative to the reference.
func endToEndMetrics(reps []rep, scale float64) map[string]metric {
	pick := map[string]func(rep) float64{
		"wall_s":      func(r rep) float64 { return r.WallS * scale },
		"setup_s":     func(r rep) float64 { return r.SetupS * scale },
		"alloc_mb":    func(r rep) float64 { return r.AllocMB },
		"peak_rss_mb": func(r rep) float64 { return r.PeakRSSMB },
		"artifact_mb": func(r rep) float64 { return r.ArtifactMB },
	}
	m := map[string]metric{}
	for _, e := range endToEnd {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = pick[e.name](r)
		}
		m[e.name] = metric{Value: median(xs), Unit: e.unit}
	}
	return m
}

// layerMetrics reduces traced repetitions to per-layer medians; the
// tracing overhead compares them with the untraced repetitions between.
func layerMetrics(plain, traced []rep, failedFrac float64) map[string]metric {
	m := map[string]metric{}
	for _, e := range perLayer {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = r.Layers[e.name]
		}
		m[e.name] = metric{Value: median(xs), Unit: e.unit}
	}
	m["telemetry.overhead_frac"] = metric{Value: median(walls(traced))/median(walls(plain)) - 1, Unit: "fraction"}
	m["failed_frac"] = metric{Value: failedFrac, Unit: "fraction"}
	return m
}

// walls lists the repetitions' measured wall times.
func walls(reps []rep) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.WallS
	}
	return xs
}

func newManifest(name string, seed uint64, traced bool) manifest {
	m := manifest{
		Workload:   name,
		Seed:       seed,
		Telemetry:  "off",
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
		Sizes: fmt.Sprintf("campaign %d days; fleet %d clusters x %d days, %d shards; soak %d daemons x %d nodes, %d sweeps",
			campaignDays, fleetClusters, fleetDays, runtime.NumCPU(), soakDaemons, soakNodesPerDaemon, soakSweeps),
	}
	if traced {
		m.Telemetry = "on in traced repetitions, off in the others"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
