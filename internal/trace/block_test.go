package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/pbs"
)

// perNodeCases draws PerNode values for the counter-block property: every
// node count the format distinguishes, and rows that are all zero, all
// MaxUint64, uniformly random, near-identical, and with node 0 larger
// than every other node (negative residuals).
func perNodeCases(rnd *rand.Rand) map[string][]hpm.Delta {
	fill := func(n int, v func(i, c int) uint64) []hpm.Delta {
		nodes := make([]hpm.Delta, n)
		for i := range nodes {
			for m := range nodes[i].Counts {
				for e := range nodes[i].Counts[m] {
					nodes[i].Counts[m][e] = v(i, m*int(hpm.NumEvents)+e)
				}
			}
		}
		return nodes
	}
	cases := map[string][]hpm.Delta{"nil": nil, "empty": {}}
	for _, n := range []int{1, 2, 128} {
		base := fill(1, func(int, int) uint64 { return rnd.Uint64() >> 16 })[0]
		for _, g := range []struct {
			name string
			v    func(i, c int) uint64
		}{
			{"zero", func(int, int) uint64 { return 0 }},
			{"max", func(int, int) uint64 { return math.MaxUint64 }},
			{"random", func(int, int) uint64 { return rnd.Uint64() }},
			{"jitter", func(_, c int) uint64 {
				return base.Counts[c/int(hpm.NumEvents)][c%int(hpm.NumEvents)] + uint64(rnd.Intn(64))
			}},
			{"node0-largest", func(i, c int) uint64 {
				if i == 0 {
					return math.MaxUint64 - uint64(c)
				}
				return uint64(rnd.Intn(1000))
			}},
			{"extremes", func(i, c int) uint64 {
				if (i+c)%2 == 0 {
					return 0
				}
				return math.MaxUint64
			}},
		} {
			cases[fmt.Sprintf("%s/n=%d", g.name, n)] = fill(n, g.v)
		}
	}
	return cases
}

// TestCounterBlockRoundTripProperty: every PerNode value survives the
// block codec and a whole database round trip unchanged, nil and empty
// stay distinct, and near-identical nodes cost about one byte a counter.
func TestCounterBlockRoundTripProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	res := sampleResult()
	res.Records = nil
	for name, nodes := range perNodeCases(rnd) {
		if nodes != nil {
			blk := appendBlock(nil, nodes)
			got, err := readBlock(blk)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, nodes) || got == nil {
				t.Fatalf("%s: block round trip changed the counters", name)
			}
			if strings.HasPrefix(name, "jitter") {
				if limit := 1 + 10*countersPerNode + (len(nodes)-1)*countersPerNode; len(blk) > limit {
					t.Errorf("%s: %d-byte block, want at most %d", name, len(blk), limit)
				}
			}
		}
		res.Records = append(res.Records, pbs.Record{JobID: len(res.Records), User: name, PerNode: nodes})
	}
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("database round trip changed the records")
	}
	for i, r := range got.Records {
		if (r.PerNode == nil) != (res.Records[i].PerNode == nil) {
			t.Errorf("%s: nil PerNode came back as %#v", r.User, r.PerNode)
		}
	}
}

// TestCounterBlockRejects covers every malformed block the decoder must
// refuse rather than decode to wrong counters or allocate for.
func TestCounterBlockRejects(t *testing.T) {
	one := appendBlock(nil, make([]hpm.Delta, 1))
	two := appendBlock(nil, make([]hpm.Delta, 2))
	cases := map[string][]byte{
		"no node count":      {},
		"truncated count":    {0x80},
		"oversized count":    {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"count beyond bytes": append([]byte{3}, two[1:]...),
		"truncated row":      one[:len(one)-1],
		"truncated residual": append(append([]byte{}, two[:len(two)-1]...), 0x80),
		"leftover bytes":     append(append([]byte{}, two...), 0),
		"empty with bytes":   {0, 0},
		"overlong varint":    append([]byte{1}, bytes.Repeat([]byte{0xff}, 11)...),
	}
	for name, blk := range cases {
		if _, err := readBlock(blk); err == nil {
			t.Errorf("%s: block %x accepted", name, blk)
		}
	}
	// The node count is checked against the bytes that must follow it
	// before anything is allocated: every counter takes at least a byte,
	// so 64K zero bytes cannot stand for 64K nodes (23 MB of counters).
	blk := append(binary.AppendUvarint(nil, 1<<16), make([]byte, 1<<16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readBlock(blk)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a block too short for its node count was accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("rejecting a %d-byte block allocated %d bytes", len(blk), got)
	}
}

// dbWithBlock is a format 2 database whose only record carries blk.
func dbWithBlock(blk []byte) string {
	return `{"version":2,"result":{"Records":[{"JobID":1,"PerNode":"` + base64.StdEncoding.EncodeToString(blk) + `"}]}}`
}

// TestDecodeErrorsAreTyped: the database and checkpoint readers tell a
// file from another format version (ErrVersion) from a damaged one
// (ErrCorrupt), whatever layer the damage is in.
func TestDecodeErrorsAreTyped(t *testing.T) {
	var db, cp bytes.Buffer
	if err := Write(&db, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFleetCheckpoint(&cp, sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	gz := func(b []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	flip := func(b []byte, off int) []byte {
		b = bytes.Clone(b)
		b[off] ^= 0xff
		return b
	}
	dbGz, cpGz := gz(db.Bytes()), gz(cp.Bytes())
	cases := []struct {
		name string
		file []byte
		want error
	}{
		{"database version 3", []byte(`{"version":3,"result":{}}`), ErrVersion},
		{"database without a version", []byte(`{"result":{}}`), ErrCorrupt},
		{"database version not first", []byte(`{"result":{},"version":2}`), ErrCorrupt},
		{"database bad json", []byte(`{"version":2,"result":{`), ErrCorrupt},
		{"database not an object", []byte(`[1,2]`), ErrCorrupt},
		{"database trailing data", append(bytes.Clone(db.Bytes()), `{}`...), ErrCorrupt},
		{"database bad gzip header", append([]byte{0x1f, 0x8b, 0}, db.Bytes()...), ErrCorrupt},
		{"database gzip crc", flip(dbGz, len(dbGz)-8), ErrCorrupt},
		{"database truncated gzip", dbGz[:len(dbGz)/2], ErrCorrupt},
		{"database truncated block", []byte(dbWithBlock([]byte{1, 0})), ErrCorrupt},
		{"database oversized node count", []byte(dbWithBlock([]byte{0xff, 0xff, 0x03})), ErrCorrupt},
		{"database block leftover", []byte(dbWithBlock([]byte{0, 7})), ErrCorrupt},
		{"database bad base64", []byte(`{"version":2,"result":{"Records":[{"PerNode":"%%"}]}}`), ErrCorrupt},
		{"database v1 arrays in v2", []byte(`{"version":2,"result":{"Records":[{"PerNode":[]}]}}`), ErrCorrupt},
		{"database v2 block in v1", []byte(`{"version":1,"result":{"Records":[{"PerNode":"AA=="}]}}`), ErrCorrupt},
		{"checkpoint version 3", []byte(`{"version":3,"fleet_id":1,"clusters":1,"done":null,"cursors":null}`), ErrVersion},
		{"checkpoint bad json", []byte(`{"version":2,"fleet_id":1,"clu`), ErrCorrupt},
		{"checkpoint trailing data", append(bytes.Clone(cp.Bytes()), `x`...), ErrCorrupt},
		{"checkpoint gzip crc", flip(cpGz, len(cpGz)-8), ErrCorrupt},
		{"checkpoint bad block", []byte(`{"version":2,"fleet_id":1,"clusters":1,"done":[{"cluster":0,"result":{"Records":[{"PerNode":"AQ=="}]}}],"cursors":null}`), ErrCorrupt},
		{"checkpoint fleet size 0", []byte(`{"version":2,"fleet_id":1,"clusters":0,"done":null,"cursors":null}`), ErrCorrupt},
		{"checkpoint duplicate cluster", []byte(`{"version":1,"fleet_id":1,"clusters":2,"done":[{"cluster":0,"result":{}},{"cluster":0,"result":{}}],"cursors":null}`), ErrCorrupt},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, "artifact")
		if err := writeRaw(path, tc.file); err != nil {
			t.Fatal(err)
		}
		var err error
		if strings.HasPrefix(tc.name, "database") {
			_, err = ReadFile(path)
		} else {
			_, err = ReadFleetCheckpointFile(path)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		other := ErrCorrupt
		if tc.want == ErrCorrupt {
			other = ErrVersion
		}
		if errors.Is(err, other) {
			t.Errorf("%s: %v is also %v", tc.name, err, other)
		}
	}
	// A missing file is neither: it is the caller's path that is wrong.
	_, err := ReadFile(filepath.Join(dir, "absent"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) {
		t.Errorf("missing file: got %v", err)
	}
}

// The readers detect gzip from the content: a compressed file without the
// suffix and a plain file with it both load.
func TestReadFileDetectsGzipByContent(t *testing.T) {
	dir := t.TempDir()
	want := sampleResult()
	if err := WriteFile(filepath.Join(dir, "db.json.gz"), want); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "db.json"), want); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "db.json.gz"), filepath.Join(dir, "zipped")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "db.json"), filepath.Join(dir, "plain.gz")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zipped", "plain.gz"} {
		got, err := ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// Format 1 — the plain-JSON document of the previous release — still
// decodes, for the database and the checkpoint, and a checkpoint read
// from it comes back as the current version so that it re-encodes and
// re-decodes to the same value.
func TestFormat1Decodes(t *testing.T) {
	res := sampleResult()
	res.Records = append(res.Records, pbs.Record{JobID: 8, PerNode: []hpm.Delta{}}, pbs.Record{JobID: 9})
	var v1 bytes.Buffer
	if err := json.NewEncoder(&v1).Encode(envelopeV1{Version: 1, Result: res}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&v1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("format 1 database decoded to a different Result")
	}

	cp := sampleCheckpoint()
	cp.Done[0].Result = res
	cp.Version = 1
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = FleetCheckpointVersion
	if !reflect.DeepEqual(back, cp) {
		t.Fatalf("format 1 checkpoint decoded to %+v", back)
	}
	buf.Reset()
	if err := WriteFleetCheckpoint(&buf, back); err != nil {
		t.Fatal(err)
	}
	again, err := ReadFleetCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, back) {
		t.Fatal("a format 1 checkpoint did not survive re-encoding")
	}
}
