package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// sampleCheckpoint builds a small but non-trivial checkpoint: one
// completed cluster with a hand-built Result, one in-flight cursor.
func sampleCheckpoint() FleetCheckpoint {
	res := workload.Result{
		Config: workload.Config{
			Days: 2, Nodes: 8, Seed: 7,
			SamplePeriodSeconds: 900,
			MeanUtil:            0.65, UtilSigma: 0.20,
			PagingDayProb: 0.20, MinRecordWall: 600,
		},
		Days: []workload.Day{
			{Index: 0, BusyNodeSeconds: 12345.5},
			{Index: 1, BusyNodeSeconds: 23456.25},
		},
		MaxGflops15min: 1.5,
		DroppedRecords: 3,
	}
	return FleetCheckpoint{
		Version:  FleetCheckpointVersion,
		FleetID:  0xdeadbeefcafe,
		Clusters: 3,
		Done:     []FleetClusterResult{{Cluster: 1, Result: res}},
		Cursors:  []FleetCursor{{Cluster: 0, NextDay: 1}, {Cluster: 1, NextDay: 2}},
	}
}

func TestFleetCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	var buf bytes.Buffer
	if err := WriteFleetCheckpoint(&buf, cp); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadFleetCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(cp, got) {
		t.Fatalf("round trip changed the checkpoint:\nwrote %+v\n read %+v", cp, got)
	}
}

func TestFleetCheckpointFileRoundTrip(t *testing.T) {
	for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
		path := filepath.Join(t.TempDir(), name)
		cp := sampleCheckpoint()
		if err := WriteFleetCheckpointFile(path, cp); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadFleetCheckpointFile(path)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if !reflect.DeepEqual(cp, got) {
			t.Fatalf("%s: file round trip changed the checkpoint", name)
		}
	}
}

// The atomic write must replace the previous checkpoint and leave no
// temporary droppings — a kill between runs must always find either the
// old or the new checkpoint, never a partial one.
func TestFleetCheckpointFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	first := sampleCheckpoint()
	if err := WriteFleetCheckpointFile(path, first); err != nil {
		t.Fatalf("first write: %v", err)
	}
	second := first
	second.Done = nil
	second.Cursors = []FleetCursor{{Cluster: 2, NextDay: 5}}
	if err := WriteFleetCheckpointFile(path, second); err != nil {
		t.Fatalf("second write: %v", err)
	}
	got, err := ReadFleetCheckpointFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(second, got) {
		t.Fatalf("replace did not take: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "fleet.ckpt" {
		t.Fatalf("temporary files left behind: %v", entries)
	}
}

func TestFleetCheckpointRejectsCorruptEnvelopes(t *testing.T) {
	valid := func() FleetCheckpoint { return sampleCheckpoint() }
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", ``, "decode"},
		{"truncated", `{"version":1,"fleet_id":1,"clu`, "decode"},
		{"version skew", `{"version":99,"fleet_id":1,"clusters":1,"done":null,"cursors":null}`, "version 99"},
		{"trailing garbage", `{"version":1,"fleet_id":1,"clusters":1,"done":null,"cursors":null}{}`, "trailing data"},
		{"zero clusters", `{"version":1,"fleet_id":1,"clusters":0,"done":null,"cursors":null}`, "fleet size 0"},
		{"done out of range", `{"version":1,"fleet_id":1,"clusters":1,"done":[{"cluster":1,"result":{}}],"cursors":null}`, "out of range"},
		{"done duplicate", `{"version":1,"fleet_id":1,"clusters":2,"done":[{"cluster":0,"result":{}},{"cluster":0,"result":{}}],"cursors":null}`, "recorded twice"},
		{"cursor out of range", `{"version":1,"fleet_id":1,"clusters":2,"done":null,"cursors":[{"cluster":-1,"next_day":0}]}`, "out of range"},
		{"cursor duplicate", `{"version":1,"fleet_id":1,"clusters":2,"done":null,"cursors":[{"cluster":1,"next_day":0},{"cluster":1,"next_day":1}]}`, "recorded twice"},
		{"negative day", `{"version":1,"fleet_id":1,"clusters":2,"done":null,"cursors":[{"cluster":1,"next_day":-3}]}`, "negative day"},
	}
	for _, tc := range cases {
		_, err := ReadFleetCheckpoint(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Sanity: the rejection cases above are rejections of the *input*, not
	// an over-strict validator — the reference checkpoint still loads.
	var buf bytes.Buffer
	if err := WriteFleetCheckpoint(&buf, valid()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFleetCheckpoint(&buf); err != nil {
		t.Fatalf("reference checkpoint rejected: %v", err)
	}
}

func TestFleetCheckpointMissingFile(t *testing.T) {
	if _, err := ReadFleetCheckpointFile(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("missing checkpoint file did not error")
	}
}

// FuzzCheckpointDecode: the decoder fronts files users hand to -resume,
// so arbitrary bytes must produce an error, never a panic, and anything
// it accepts must survive an encode/decode cycle unchanged (a drifting
// checkpoint would silently corrupt a resumed campaign).
func FuzzCheckpointDecode(f *testing.F) {
	// Hand seeds covering the envelope's edges; the committed corpus under
	// testdata/fuzz adds valid (format 1 and 2), truncated, version-skewed
	// and trailing-garbage checkpoints.
	f.Add([]byte(`{"version":1,"fleet_id":1,"clusters":1,"done":null,"cursors":null}`))
	f.Add([]byte(`{"version":1,"fleet_id":18446744073709551615,"clusters":2,"done":[],"cursors":[{"cluster":0,"next_day":3}]}`))
	f.Add([]byte(`{"version":3,"fleet_id":1,"clusters":1,"done":null,"cursors":null}`))
	f.Add([]byte(`{"version":1,"fleet_id":1,"clusters":-1,"done":null,"cursors":null}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadFleetCheckpoint(bytes.NewReader(data))
		if err != nil {
			return // rejected input; the only requirement is not panicking
		}
		var buf bytes.Buffer
		if err := WriteFleetCheckpoint(&buf, cp); err != nil {
			t.Fatalf("re-encoding accepted checkpoint failed: %v", err)
		}
		again, err := ReadFleetCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoder's output failed: %v", err)
		}
		if !reflect.DeepEqual(cp, again) {
			t.Fatalf("round trip changed the checkpoint:\n first: %+v\nsecond: %+v", cp, again)
		}
	})
}

// partsCheckpoint is a 3-cluster checkpoint with the given clusters done,
// each carrying a distinct Result.
func partsCheckpoint(done ...int) FleetCheckpoint {
	cp := FleetCheckpoint{Version: FleetCheckpointVersion, FleetID: 0xfeedface, Clusters: 3}
	for _, c := range done {
		res := sampleResult()
		res.DroppedRecords = c + 10
		res.Days[0].BusyNodeSeconds += float64(c)
		cp.Done = append(cp.Done, FleetClusterResult{Cluster: c, Result: res})
		cp.Cursors = append(cp.Cursors, FleetCursor{Cluster: c, NextDay: len(res.Days)})
	}
	return cp
}

// writeParts encodes cp's done clusters one by one and writes them through
// the parts writer, as the fleet does; it returns the encoded parts.
func writeParts(t *testing.T, path string, cp FleetCheckpoint) []FleetPart {
	t.Helper()
	var parts []FleetPart
	for _, d := range cp.Done {
		p, err := EncodeFleetPart(path, d)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := WriteFleetCheckpointParts(path, cp.FleetID, cp.Clusters, parts, cp.Cursors); err != nil {
		t.Fatal(err)
	}
	return parts
}

// The parts writer must reproduce WriteFleetCheckpoint's bytes exactly
// once decompressed — "done":null included — so that every existing
// checkpoint reader, and zcat, sees the same document.
func TestFleetCheckpointPartsMatchEnvelope(t *testing.T) {
	for _, done := range [][]int{nil, {1}, {0, 1, 2}} {
		cp := partsCheckpoint(done...)
		var want bytes.Buffer
		if err := WriteFleetCheckpoint(&want, cp); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"fleet.ckpt", "fleet.ckpt.gz"} {
			path := filepath.Join(t.TempDir(), name)
			writeParts(t, path, cp)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(name, ".gz") {
				zr, err := gzip.NewReader(bytes.NewReader(got))
				if err != nil {
					t.Fatal(err)
				}
				if got, err = io.ReadAll(zr); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%d done, %s: parts writer wrote\n%s\nenvelope writer wrote\n%s", len(done), name, got, want.Bytes())
			}
			back, err := ReadFleetCheckpointFile(path)
			if err != nil {
				t.Fatalf("%d done, %s: %v", len(done), name, err)
			}
			if !reflect.DeepEqual(back, cp) {
				t.Fatalf("%d done, %s: round trip changed the checkpoint", len(done), name)
			}
		}
	}
}

// Each part is its own gzip member with its own CRC, and the reader reads
// to the end of the stream, so damage inside any member — not only the
// last — fails the load.
func TestFleetCheckpointCorruptMiddleMember(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.ckpt.gz")
	parts := writeParts(t, path, partsCheckpoint(0, 1, 2))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := parts[1].b
	start := bytes.Index(good, mid)
	if start < 0 || bytes.Index(good[start+1:], mid) >= 0 {
		t.Fatal("middle part not found exactly once in the file")
	}
	for name, off := range map[string]int{
		"deflate data": len(mid) / 2,
		"crc":          len(mid) - 8,
	} {
		bad := bytes.Clone(good)
		bad[start+off] ^= 0xff
		if err := writeRaw(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFleetCheckpointFile(path); err == nil {
			t.Errorf("flipped byte in the middle member's %s: checkpoint accepted", name)
		}
	}
}

// A cluster whose Result cannot be encoded fails at EncodeFleetPart, before
// any file is touched: the previous checkpoint stays byte-identical and no
// temporary file is left.
func TestFleetCheckpointPartEncodeFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt.gz")
	cp := partsCheckpoint(0, 2)
	writeParts(t, path, cp)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := cp.Done[0]
	bad.Result.MaxGflops15min = math.NaN()
	if _, err := EncodeFleetPart(path, bad); err == nil {
		t.Fatal("a NaN result encoded without error")
	}
	plain, err := EncodeFleetPart(filepath.Join(dir, "fleet.ckpt"), cp.Done[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFleetCheckpointParts(path, cp.FleetID, cp.Clusters, []FleetPart{plain}, cp.Cursors); err == nil {
		t.Fatal("an uncompressed part was written into a .gz checkpoint")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed part changed the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary files left behind: %v", entries)
	}
}
