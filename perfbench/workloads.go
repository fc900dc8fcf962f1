package main

// The four workloads, one repetition each. Every repetition runs in a
// fresh child process, so it starts the way a CLI process starts: an
// empty profile store, zeroed telemetry counters, a fresh heap. Each
// function drives the same public calls, in the same order, as the
// command it mirrors, inside one timed window; the checks run after the
// window closes.
//
// A traced repetition turns telemetry on and additionally wraps the
// calls into each layer (the Generator and Reducer seams, the trace
// codec, the analysis measurements, fleet.Run, the harness sweep), so the
// per-layer figures come from the benchmark's own spans plus deltas of
// the counters hpmtel already keeps.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hpm"
	"repro/internal/profile"
	"repro/internal/rs2hpm"
	"repro/internal/rs2hpm/loadtest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload sizes. The campaign length is shared by paper-campaign and the
// database analysis-from-db reads, so the two sides of the codec see the
// same file.
const (
	campaignDays       = 90
	fleetClusters      = 4
	fleetDays          = 30
	soakDaemons        = 2
	soakNodesPerDaemon = 72 // 2 x 72 = the SP2's 144 nodes
	soakSweeps         = 1000
	// standardInstrs is the simulated instructions behind one uncached
	// standard profile set: five kernels at 400k plus paging at 700k
	// (profile.MeasureStandardStore).
	standardInstrs = 5*400_000 + 700_000
	// seqRowInstrs and npbInstrs are the instruction counts cmd/experiments
	// passes for Table 4's sequential row and the NPB suite.
	seqRowInstrs = 200_000
	npbInstrs    = 400_000
)

// workloads names the workloads in the order BENCHMARK.json lists them.
var workloads = []string{"paper-campaign", "analysis-from-db", "fleet-faulted", "collection-soak"}

// params are one repetition's inputs, all derived from the seed.
type params struct {
	seed   uint64
	days   int    // campaign length (paper-campaign)
	dir    string // scratch directory for the artifacts the workload writes
	root   string // repository root, for the conformance bands
	db     string // analysis-from-db: the database to analyse
	dbHash uint64 // analysis-from-db: resultHash of the Result written there
	shards int    // fleet-faulted: cluster-level shards (nproc)
	traced bool
}

// rep is what one repetition reports to the parent.
type rep struct {
	WallS      float64            `json:"wall_s"`
	SetupS     float64            `json:"setup_s"`
	AllocMB    float64            `json:"alloc_mb"`
	ArtifactMB float64            `json:"artifact_mb"`
	PeakRSSMB  float64            `json:"peak_rss_mb"` // the child's VmHWM, read after the repetition
	Hash       uint64             `json:"hash,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// check records one attempted check.
func (r *rep) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail(1, err)
	}
}

// fail records n failures described by err.
func (r *rep) fail(n int, err error) {
	r.Failed += n
	r.Failures = append(r.Failures, err.Error())
}

// runRep dispatches one repetition.
func runRep(name string, p params) (rep, error) {
	telemetry.SetEnabled(p.traced)
	switch name {
	case "paper-campaign":
		return paperCampaign(p)
	case "analysis-from-db":
		return analysisFromDB(p)
	case "fleet-faulted":
		return fleetFaulted(p)
	case "collection-soak":
		return collectionSoak(p)
	}
	return rep{}, fmt.Errorf("unknown workload %q", name)
}

// window is a repetition's timed interval: wall time and bytes allocated.
type window struct {
	start  time.Time
	alloc0 uint64
}

func openWindow() window {
	return window{alloc0: totalAlloc(), start: time.Now()}
}

func (w window) close(r *rep) {
	r.WallS = time.Since(w.start).Seconds()
	r.AllocMB = float64(totalAlloc()-w.alloc0) / 1e6
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// counters reads every hpmtel counter and histogram sum/count by name.
func counters() map[string]float64 {
	s := telemetry.Default.Snapshot()
	m := make(map[string]float64, len(s.Counters)+2*len(s.Histograms))
	for _, c := range s.Counters {
		m[c.Name] = float64(c.Value)
	}
	for _, h := range s.Histograms {
		m[h.Name+".sum"] = h.Sum
		m[h.Name+".count"] = float64(h.Count)
	}
	return m
}

// since returns the per-name increase from before to now.
func since(before map[string]float64) map[string]float64 {
	d := counters()
	for k, v := range before {
		d[k] -= v
	}
	return d
}

// timedGenerator times the generate stage through the Generator seam.
type timedGenerator struct {
	g workload.Generator
	d time.Duration
}

func (t *timedGenerator) GenerateDay(day int) workload.DayPlan {
	start := time.Now()
	plan := t.g.GenerateDay(day)
	t.d += time.Since(start)
	return plan
}

// dayTimer is a Reducer that records the wall time between consecutive
// closed days.
type dayTimer struct {
	last time.Time
	ms   []float64
}

func (t *dayTimer) ReduceDay(workload.Day) {
	now := time.Now()
	if !t.last.IsZero() {
		t.ms = append(t.ms, float64(now.Sub(t.last))/1e6)
	}
	t.last = now
}

func (*dayTimer) Finish(workload.Final) {}

// countingWriter counts bytes and discards them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func fileMB(paths ...string) (float64, error) {
	var n int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return float64(n) / 1e6, nil
}

// engineLayers fills the campaign-engine rows from counter deltas.
func engineLayers(l, d map[string]float64) {
	l["workload.ticks"] = d["workload.campaign.ticks"]
	l["workload.engine.jobs_advanced"] = d["workload.engine.jobs_advanced"]
	l["workload.engine.nodes_sampled"] = d["workload.engine.nodes_sampled"]
	l["workload.engine.advance_ns_per_job"] = ratio(d["workload.engine.advance_ns.sum"], d["workload.engine.jobs_advanced"])
	l["workload.engine.sample_ns_per_node"] = ratio(d["workload.engine.sample_ns.sum"], d["workload.engine.nodes_sampled"])
	l["workload.campaign.tick_us"] = ratio(d["workload.campaign.tick_ns.sum"], d["workload.campaign.ticks"]) / 1e3
	l["workload.campaign.reduce_ms"] = d["workload.campaign.reduce_ns.sum"] / 1e6
	l["profile.store.misses"] = d["profile.store.misses"]
	l["profile.store.hits"] = d["profile.store.hits"]
}

func dayLayers(l map[string]float64, t *dayTimer) {
	l["workload.day_ms_p50"] = quantile(t.ms, 0.5)
	l["workload.day_ms_p95"] = quantile(t.ms, 0.95)
}

// campaignResult makes the calls paperCampaign times, untimed: measure
// the standard profiles, build the default paper-1996 campaign, run it
// serially into a ResultReducer. It generates analysis-from-db's input.
func campaignResult(seed uint64, days int) workload.Result {
	std := profile.MeasureStandardWorkers(seed, 1)
	cfg := workload.DefaultConfig(seed)
	cfg.Days = days
	cfg.Workers = 1
	var rr workload.ResultReducer
	workload.NewCampaign(cfg, workload.DefaultMix(std)).RunInto(workload.TeeReducer{&rr})
	return rr.Result()
}

// makeDatabase writes the campaign database analysis-from-db reads and
// returns the hash of the Result it wrote.
func makeDatabase(seed uint64, days int, path string) (uint64, error) {
	res := campaignResult(seed, days)
	h, err := resultHash(res)
	if err != nil {
		return 0, err
	}
	return h, trace.WriteFile(path, res)
}

// paperCampaign mirrors `spsim -workers 1 -days D -seed S -o campaign.json.gz`.
func paperCampaign(p params) (rep, error) {
	var r rep
	bands, err := loadBands(p.root)
	if err != nil {
		return r, err
	}
	db := filepath.Join(p.dir, "campaign.json.gz")
	before := counters()
	l := map[string]float64{}

	w := openWindow()
	t := time.Now()
	std := profile.MeasureStandardWorkers(p.seed, 1)
	measure := time.Since(t)
	cfg := workload.DefaultConfig(p.seed)
	cfg.Days = p.days
	mix := workload.DefaultMix(std)
	cfg.Workers = 1
	var a0 uint64
	if p.traced {
		a0 = totalAlloc()
	}
	t = time.Now()
	campaign := workload.NewCampaign(cfg, mix)
	newCampaign := time.Since(t)
	if p.traced {
		l["workload.new_campaign_alloc_mb"] = float64(totalAlloc()-a0) / 1e6
	}
	r.SetupS = time.Since(w.start).Seconds()

	var sinks workload.TeeReducer
	gen := &timedGenerator{}
	days := &dayTimer{}
	if p.traced {
		gen.g = workload.NewGenerator(cfg, mix)
		campaign.SetGenerator(gen)
		sinks = append(sinks, days)
		a0 = totalAlloc()
	}
	var rr workload.ResultReducer
	campaign.RunInto(append(sinks, &rr))
	res := rr.Result()
	if p.traced {
		l["workload.run_alloc_mb"] = float64(totalAlloc()-a0) / 1e6
	}
	t = time.Now()
	err = trace.WriteFile(db, res)
	encode := time.Since(t)
	w.close(&r)
	if err != nil {
		return r, err
	}

	if r.ArtifactMB, err = fileMB(db); err != nil {
		return r, err
	}
	if r.Hash, err = resultHash(res); err != nil {
		return r, err
	}
	n, errs := checkBands(bands, res)
	r.Attempted += n
	for _, e := range errs {
		r.fail(1, e)
	}
	if !p.traced {
		return r, nil
	}

	d := since(before)
	engineLayers(l, d)
	dayLayers(l, days)
	l["workload.campaign.generate_ms"] = float64(gen.d) / 1e6
	l["workload.new_campaign_ms"] = float64(newCampaign) / 1e6
	l["profile.measure_s"] = measure.Seconds()
	l["power2.ns_per_instr"] = float64(measure) / standardInstrs
	l["trace.encode_s"] = encode.Seconds()
	l["trace.db_gz_mb"] = r.ArtifactMB
	var raw countingWriter
	t = time.Now()
	if err := trace.Write(&raw, res); err != nil {
		return r, err
	}
	l["trace.encode_json_s"] = time.Since(t).Seconds()
	l["trace.db_raw_mb"] = float64(raw.n) / 1e6
	timed := measure.Seconds() + newCampaign.Seconds() + gen.d.Seconds() +
		(d["workload.campaign.tick_ns.sum"]+d["workload.campaign.reduce_ns.sum"])/1e9 + encode.Seconds()
	l["unattributed_frac"] = 1 - timed/r.WallS
	r.Layers = l
	return r, nil
}

// analysisFromDB mirrors `experiments -trace campaign.json.gz -seed S -all`.
func analysisFromDB(p params) (rep, error) {
	var r rep
	before := counters()
	var out bytes.Buffer

	w := openWindow()
	t := time.Now()
	res, err := trace.ReadFile(p.db)
	decode := time.Since(t)
	if err != nil {
		return r, err
	}
	r.SetupS = time.Since(w.start).Seconds()
	fmt.Fprintf(&out, "loaded %d-day campaign from %s\n\n", len(res.Days), p.db)

	t = time.Now()
	if line := analysis.RenderScenario(res); line != "" {
		fmt.Fprintln(&out, line)
	}
	if cov := analysis.RenderCoverage(res); cov != "" {
		fmt.Fprintln(&out, cov)
	}
	fmt.Fprintln(&out, analysis.RenderTable1())
	fmt.Fprintln(&out, analysis.ComputeTable2(res).Render())
	fmt.Fprintln(&out, analysis.ComputeTable3(res).Render())
	tables := time.Since(t)
	t = time.Now()
	seq := analysis.MeasureSequentialRow(p.seed, seqRowInstrs)
	seqT := time.Since(t)
	t = time.Now()
	bt := analysis.MeasureBT49Row(analysis.DefaultBT49())
	btT := time.Since(t)
	t = time.Now()
	fmt.Fprintln(&out, analysis.ComputeTable4(res, seq, bt).Render())
	fmt.Fprintln(&out, analysis.ComputeFigure1(res).Render())
	fmt.Fprintln(&out, analysis.ComputeFigure2(res).Render())
	fmt.Fprintln(&out, analysis.ComputeFigure3(res).Render())
	fmt.Fprintln(&out, analysis.ComputeFigure4(res).Render())
	fmt.Fprintln(&out, analysis.ComputeFigure5(res).Render())
	tables += time.Since(t)
	t = time.Now()
	fmt.Fprintln(&out, analysis.MeasureIOWaitWhatIf(p.seed).Render())
	whatif := time.Since(t)
	t = time.Now()
	fmt.Fprintln(&out, analysis.MeasureNPBSuite(p.seed, npbInstrs).Render())
	npb := time.Since(t)
	w.close(&r)

	r.ArtifactMB = float64(out.Len()) / 1e6
	r.check(checkDatabase(res, p.dbHash))
	if !p.traced {
		return r, nil
	}

	d := since(before)
	l := map[string]float64{}
	engineLayers(l, d)
	l["trace.decode_s"] = decode.Seconds()
	l["analysis.tables_ms"] = float64(tables) / 1e6
	l["analysis.table4_seq_ms"] = float64(seqT) / 1e6
	l["analysis.table4_bt49_s"] = btT.Seconds()
	l["analysis.whatif_s"] = whatif.Seconds()
	l["analysis.npb_s"] = npb.Seconds()
	l["power2.ns_per_instr"] = float64(seqT) / seqRowInstrs
	raw, err := gunzip(p.db)
	if err != nil {
		return r, err
	}
	t = time.Now()
	if _, err := trace.Read(bytes.NewReader(raw)); err != nil {
		return r, err
	}
	l["trace.decode_json_s"] = time.Since(t).Seconds()
	timed := decode.Seconds() + tables.Seconds() + seqT.Seconds() + btT.Seconds() + whatif.Seconds() + npb.Seconds()
	l["unattributed_frac"] = 1 - timed/r.WallS
	r.Layers = l
	return r, nil
}

// checkDatabase verifies a decoded database re-hashes to the hash of the
// Result that was written.
func checkDatabase(res workload.Result, want uint64) error {
	got, err := resultHash(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("decoded database hashes to %#x, the written Result to %#x", got, want)
	}
	return nil
}

func gunzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(gz)
}

// fleetFaulted mirrors `spsim -clusters 4 -shards <nproc> -workers 1
// -days 30 -seed S -faults -checkpoint fleet.json.gz -record fleet.trace.gz`.
func fleetFaulted(p params) (rep, error) {
	var r rep
	checkpoint := filepath.Join(p.dir, "fleet.json.gz")
	recording := filepath.Join(p.dir, "fleet.trace.gz")
	before := counters()

	w := openWindow()
	t := time.Now()
	std := profile.MeasureStandardWorkers(p.seed, 1)
	measure := time.Since(t)
	_ = workload.DefaultMix(std) // spsim builds the classic mix before choosing the fleet path
	sys := core.New(core.Config{Seed: p.seed, Workers: 1, Days: fleetDays})
	members, err := sys.FleetMembers(fleetClusters)
	if err != nil {
		return r, err
	}
	for i := range members {
		f := faults.Default()
		members[i].Config.Faults = &f
	}
	r.SetupS = time.Since(w.start).Seconds()

	var sinks []workload.Reducer
	days := &dayTimer{}
	var a0 uint64
	if p.traced {
		sinks = append(sinks, days)
		a0 = totalAlloc()
	}
	t = time.Now()
	res, err := fleet.Run(members, fleet.Options{
		Shards:     p.shards,
		Checkpoint: checkpoint,
		RecordTo:   recording,
	}, sinks...)
	run := time.Since(t)
	w.close(&r)
	if err != nil {
		return r, err
	}

	if r.ArtifactMB, err = fileMB(checkpoint, recording); err != nil {
		return r, err
	}
	if r.Hash, err = resultHash(res); err != nil {
		return r, err
	}
	r.check(checkCoverage(res))
	if !p.traced {
		return r, nil
	}

	l := map[string]float64{}
	l["workload.run_alloc_mb"] = float64(totalAlloc()-a0) / 1e6
	d := since(before)
	engineLayers(l, d)
	dayLayers(l, days)
	l["workload.campaign.generate_ms"] = d["workload.campaign.generate_ns.sum"] / 1e6
	l["profile.measure_s"] = measure.Seconds()
	l["power2.ns_per_instr"] = float64(measure) / standardInstrs
	l["fleet.cluster_s_mean"] = ratio(d["fleet.cluster_ns.sum"], d["fleet.cluster_ns.count"]) / 1e9
	l["fleet.shard_busy_frac"] = d["fleet.cluster_ns.sum"] / 1e9 / (float64(p.shards) * run.Seconds())
	l["fleet.checkpoint_ms"] = d["fleet.checkpoint_ns.sum"] / 1e6
	l["fleet.checkpoints_written"] = d["fleet.checkpoints_written"]
	l["fleet.days_merged"] = d["fleet.days_merged"]
	l["replay.records_written"] = d["replay.records_written"]
	l["replay.bytes_written"] = d["replay.bytes_written"]
	l["faults.captured_frac"] = res.Coverage.Total.CaptureRatio()
	// The critical path through fleet.Run is its busiest shard.
	busiest := 0.0
	for s := 0; s < p.shards; s++ {
		busiest = max(busiest, d[fmt.Sprintf("fleet.shard%d.busy_ns", s)]/1e9)
	}
	l["unattributed_frac"] = 1 - (r.SetupS+busiest)/r.WallS

	// NewCampaign runs inside fleet.Run, once per cluster; time it apart,
	// after the window, on the same member definitions.
	var newCampaign time.Duration
	a0 = totalAlloc()
	for _, m := range members {
		t = time.Now()
		workload.NewCampaign(m.Config, m.Mix)
		newCampaign += time.Since(t)
	}
	l["workload.new_campaign_alloc_mb"] = float64(totalAlloc()-a0) / 1e6
	l["workload.new_campaign_ms"] = float64(newCampaign) / 1e6
	r.Layers = l
	return r, nil
}

// checkCoverage verifies a faulted result carries a coverage ledger that
// cross-foots: every ledger balances, and the per-day rows sum to the
// total. The counts must agree exactly. LostNodeSeconds is a float that
// the fleet merge sums cluster-major for the total but day-major for the
// rows, so the two sums round differently in the last place; it is
// compared to a relative 1e-9 instead (faults.Report.Check compares it
// exactly and rejects a merged fleet report for that rounding alone).
func checkCoverage(res workload.Result) error {
	cov := res.Coverage
	if cov == nil {
		return fmt.Errorf("faulted fleet result carries no coverage report")
	}
	if err := cov.Total.Check(); err != nil {
		return err
	}
	var sum faults.Coverage
	for _, d := range cov.Days {
		if err := d.Coverage.Check(); err != nil {
			return fmt.Errorf("day %d: %w", d.Day, err)
		}
		sum.Add(d.Coverage)
	}
	lost, total := sum.LostNodeSeconds, cov.Total.LostNodeSeconds
	if math.Abs(lost-total) > 1e-9*math.Max(math.Abs(total), 1) {
		return fmt.Errorf("coverage rows lose %v node-seconds, the total %v", lost, total)
	}
	sum.LostNodeSeconds = total
	if sum != cov.Total {
		return fmt.Errorf("coverage rows sum to %+v, the total says %+v", sum, cov.Total)
	}
	return nil
}

// soakSpec is the collection fleet: two v2 daemons fronting 72 nodes each,
// two collectors, one pooled connection per daemon, a lossless queue.
func soakSpec(seed uint64) loadtest.Spec {
	return loadtest.Spec{
		Healthy:        soakDaemons,
		NodesPerDaemon: soakNodesPerDaemon,
		Seed:           seed,
		Collectors:     2,
		PoolSize:       1,
		QueueDepth:     256,
		Policy:         rs2hpm.BlockOnFull,
		Batch:          true,
		Retries:        2,
	}
}

// collectionSoak mirrors `rs2hpm -collect` against an in-process daemon
// fleet: a closed loop of back-to-back sweeps, then the ledger summary and
// per-node rates rs2hpm prints.
func collectionSoak(p params) (rep, error) {
	var r rep
	before := counters()
	var out bytes.Buffer

	w := openWindow()
	h, err := loadtest.New(soakSpec(p.seed))
	if err != nil {
		return r, err
	}
	r.SetupS = time.Since(w.start).Seconds()
	sweepMs := make([]float64, 0, soakSweeps)
	sweepErrs := 0
	for i := 0; i < soakSweeps; i++ {
		t := time.Now()
		if err := h.Sweep(); err != nil {
			sweepErrs++
		}
		sweepMs = append(sweepMs, float64(time.Since(t))/1e6)
	}
	t := time.Now()
	h.Close()
	closeT := time.Since(t)
	l := h.Ledger()
	writeCollectReport(&out, h.Log, l, float64(h.Sweeps()))
	w.close(&r)

	r.ArtifactMB = float64(out.Len()) / 1e6
	// Every sample and every sweep is an attempt; a gapped, dropped or
	// rejected sample, or a sweep that lost a daemon, is a failure.
	r.Attempted += int(l.Offered) + soakSweeps
	if gaps := l.Gaps(); gaps > 0 {
		r.fail(int(gaps), fmt.Errorf("%d of %d samples gapped, dropped or rejected", gaps, l.Offered))
	}
	if sweepErrs > 0 {
		r.fail(sweepErrs, fmt.Errorf("%d of %d sweeps reported daemon failures", sweepErrs, soakSweeps))
	}
	r.check(checkCollection(l, h.Verify))
	if !p.traced {
		return r, nil
	}

	d := since(before)
	lay := map[string]float64{}
	sweeping := 0.0
	for _, ms := range sweepMs {
		sweeping += ms / 1e3
	}
	lay["rs2hpm.samples_per_s"] = float64(l.Captured) / sweeping
	lay["rs2hpm.sweep_p50_ms"] = quantile(sweepMs, 0.5)
	lay["rs2hpm.sweep_p99_ms"] = quantile(sweepMs, 0.99)
	lay["rs2hpm.wire_bytes_per_sample"] = ratio(d["rs2hpm.client.bytes_rx"]+d["rs2hpm.client.bytes_tx"], d["rs2hpm.ingest.captured"])
	lay["rs2hpm.pool.reuse_frac"] = ratio(d["rs2hpm.pool.reuses"], d["rs2hpm.pool.reuses"]+d["rs2hpm.pool.dials"])
	lay["rs2hpm.client.batches_per_sweep"] = ratio(d["rs2hpm.client.batches"], d["rs2hpm.service.sweeps"])
	lay["rs2hpm.ingest.captured_frac"] = ratio(d["rs2hpm.ingest.captured"], d["rs2hpm.ingest.offered"])
	lay["unattributed_frac"] = 1 - (r.SetupS+sweeping+closeT.Seconds())/r.WallS
	r.Layers = lay
	return r, nil
}

// checkCollection runs the service ledger's cross-foot and the harness's
// full verification (ledger against log against scheduled workload).
func checkCollection(l rs2hpm.ServiceLedger, verify func() error) error {
	if err := l.CrossFoot(); err != nil {
		return err
	}
	return verify()
}

// writeCollectReport prints what `rs2hpm -collect` prints after its
// service closes: the ledger summary and each node's rates.
func writeCollectReport(w io.Writer, log *rs2hpm.SampleLog, l rs2hpm.ServiceLedger, until float64) {
	fmt.Fprintf(w, "rs2hpm: %d sweeps, %d daemon-sweeps, %d sweep failures\n",
		l.Sweeps, l.DaemonSweeps, l.SweepFailures)
	fmt.Fprintf(w, "rs2hpm: offered %d reads: captured %d, gapped %d, dropped %d, rejected %d (gap rate %.4f)\n",
		l.Offered, l.Captured, l.Gapped, l.Dropped, l.Rejected, l.GapRate())
	for _, id := range log.Nodes() {
		if d, secs, ok := log.DeltaOver(id, 0, until); ok && secs > 0 {
			r := hpm.UserRates(d, secs)
			fmt.Fprintf(w, "node %3d: %3d samples over %6.1fs  %7.2f Mflops  %7.2f Mips\n",
				id, log.Len(id), secs, r.MflopsAll, r.Mips)
		}
	}
}
