package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/rs2hpm/loadtest"
	"repro/internal/trace"
	"repro/internal/workload"
)

// root is the repository root as seen from this package's directory.
const root = ".."

func TestInputsArePureInTheSeed(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json.gz"), filepath.Join(dir, "b.json.gz"), filepath.Join(dir, "c.json.gz")
	ha, err := makeDatabase(3, 2, a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := makeDatabase(3, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := makeDatabase(4, 2, c)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb || !bytes.Equal(readFile(t, a), readFile(t, b)) {
		t.Errorf("seed 3 gave two different databases (%#x, %#x)", ha, hb)
	}
	if ha == hc {
		t.Errorf("seeds 3 and 4 gave the same database %#x", ha)
	}

	fleetID := func(seed uint64) uint64 {
		members, err := core.New(core.Config{Seed: seed, Workers: 1, Days: fleetDays}).FleetMembers(fleetClusters)
		if err != nil {
			t.Fatal(err)
		}
		return fleet.ID(members)
	}
	if fleetID(3) != fleetID(3) || fleetID(3) == fleetID(4) {
		t.Error("fleet definitions are not a function of the seed")
	}
	if !reflect.DeepEqual(soakSpec(3), soakSpec(3)) {
		t.Error("soak spec is not a function of the seed")
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(readFile(t, filepath.Join(root, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !valid.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric name %q is used twice", m.name)
			}
			seen[m.name] = true
		}
	}

	declared := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	ours := func(list []struct{ name, unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	if got, want := ours(endToEnd), declared(bench.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := ours(perLayer), declared(bench.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", workloads, names)
	}

	// What a run emits: exactly the declared names, from every workload.
	emitted := func(m map[string]metric) []string {
		var out []string
		for k, v := range m {
			out = append(out, k+" "+v.Unit)
		}
		return out
	}
	if got, want := emitted(endToEndMetrics([]rep{{}}, 1)), ours(endToEnd); !sameSet(got, want) {
		t.Errorf("an untraced run emits %v, want %v", got, want)
	}
	if got, want := emitted(layerMetrics([]rep{{WallS: 1}}, []rep{{WallS: 1}}, 0)), ours(perLayer); !sameSet(got, want) {
		t.Errorf("a traced run emits %v, want %v", got, want)
	}
	if testing.Short() {
		return
	}
	dir := t.TempDir()
	db := filepath.Join(dir, "campaign.json.gz")
	h, err := makeDatabase(2, 2, db)
	if err != nil {
		t.Fatal(err)
	}
	layer := map[string]bool{}
	for _, m := range perLayer {
		layer[m.name] = true
	}
	for _, w := range workloads {
		r, err := runRep(w, params{seed: 2, days: 2, dir: dir, root: root, db: db, dbHash: h, shards: 2, traced: true})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for name := range r.Layers {
			if !layer[name] {
				t.Errorf("%s reports undeclared layer metric %q", w, name)
			}
		}
		if r.Layers["unattributed_frac"] == 0 {
			t.Errorf("%s reports no unattributed_frac", w)
		}
	}
}

func TestChecksFailOnCorruptOutput(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		h, err := goldenCampaign()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkGolden(h, goldenHash); err != nil {
			t.Fatalf("golden recipe: %v", err)
		}
		if checkGolden(h, goldenHash^1) == nil {
			t.Error("a wrong golden constant passed")
		}
	})

	t.Run("database", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"db.json.gz", "db.json"} {
			path := filepath.Join(dir, name)
			want, err := makeDatabase(5, 2, path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := trace.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkDatabase(res, want); err != nil {
				t.Fatalf("%s: intact database: %v", name, err)
			}
			raw := readFile(t, path)
			// Flip a byte: a digit of the JSON text, or a byte of the
			// compressed stream.
			i := len(raw) / 2
			if !strings.HasSuffix(name, ".gz") {
				i = bytes.IndexAny(raw[i:], "123456789") + i
				raw[i] = '0'
			} else {
				raw[i] ^= 0x40
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if res, err := trace.ReadFile(path); err == nil && checkDatabase(res, want) == nil {
				t.Errorf("%s: a flipped byte passed the round-trip check", name)
			}
		}
	})

	t.Run("ledger", func(t *testing.T) {
		h, err := loadtest.New(loadtest.Spec{Healthy: 1, NodesPerDaemon: 4, Collectors: 1, PoolSize: 1, Batch: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := h.Sweep(); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
		l := h.Ledger()
		if err := checkCollection(l, h.Verify); err != nil {
			t.Fatalf("intact ledger: %v", err)
		}
		l.Captured--
		if checkCollection(l, h.Verify) == nil {
			t.Error("a ledger missing one sample passed")
		}
	})

	t.Run("coverage", func(t *testing.T) {
		cfg := workload.DefaultConfig(1)
		cfg.Days, cfg.Workers = 2, 1
		f := faults.Default()
		cfg.Faults = &f
		res := workload.NewCampaign(cfg, workload.DefaultMix(core.New(core.Config{Seed: 1, Workers: 1}).Profiles())).Run()
		if err := checkCoverage(res); err != nil {
			t.Fatalf("intact coverage: %v", err)
		}
		res.Coverage.Days[1].Captured--
		if checkCoverage(res) == nil {
			t.Error("a coverage ledger missing one sample passed")
		}
	})
}

// TestMirrorsSpsim pins the benchmark to the program users run: the
// paper-campaign body writes the same database, byte for byte, as spsim.
func TestMirrorsSpsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs spsim")
	}
	dir := t.TempDir()
	spsim := filepath.Join(dir, "spsim")
	if out, err := exec.Command("go", "build", "-o", spsim, "repro/cmd/spsim").CombinedOutput(); err != nil {
		t.Fatalf("go build spsim: %v\n%s", err, out)
	}
	want := filepath.Join(dir, "spsim.json.gz")
	if out, err := exec.Command(spsim, "-workers", "1", "-days", "2", "-seed", "9", "-o", want).CombinedOutput(); err != nil {
		t.Fatalf("spsim: %v\n%s", err, out)
	}
	if _, err := paperCampaign(params{seed: 9, days: 2, dir: dir, root: root}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "campaign.json.gz")), readFile(t, want)) {
		t.Error("paper-campaign wrote a different database than spsim -workers 1 -days 2 -seed 9 -o")
	}
	db := filepath.Join(dir, "input.json.gz")
	if _, err := makeDatabase(9, 2, db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, db), readFile(t, want)) {
		t.Error("the analysis-from-db input differs from spsim's database")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[string]int{}
	for _, s := range a {
		m[s]++
	}
	for _, s := range b {
		m[s]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

// The host-speed scale multiplies the times and nothing else.
func TestSpeedScaleAppliesToTimesOnly(t *testing.T) {
	reps := []rep{{WallS: 2, SetupS: 0.5, AllocMB: 100, PeakRSSMB: 80, ArtifactMB: 1.5}}
	m := endToEndMetrics(reps, 1.5)
	want := map[string]float64{"wall_s": 3, "setup_s": 0.75, "alloc_mb": 100, "peak_rss_mb": 80, "artifact_mb": 1.5}
	for name, v := range want {
		if got := m[name].Value; got != v {
			t.Errorf("%s = %v at scale 1.5, want %v", name, got, v)
		}
	}
}

// The reference does the same work on every call.
func TestReferenceIsFixedWork(t *testing.T) {
	if first, again := referenceProcess(), referenceProcess(); again != first {
		t.Errorf("the reference returned %v, then %v", first, again)
	}
}
