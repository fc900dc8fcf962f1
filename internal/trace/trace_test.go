package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hpm"
	"repro/internal/pbs"
	"repro/internal/workload"
)

// sampleResult builds a small synthetic result with non-trivial content.
func sampleResult() workload.Result {
	var res workload.Result
	res.Config = workload.DefaultConfig(5)
	res.Config.Days = 2
	var d workload.Day
	d.Index = 0
	d.Delta.Counts[hpm.User][hpm.EvFPU0Add] = 123456789
	d.Delta.Counts[hpm.System][hpm.EvFXU0Instr] = 42
	d.BusyNodeSeconds = 98765
	res.Days = append(res.Days, d)
	d.Index = 1
	res.Days = append(res.Days, d)
	var rec pbs.Record
	rec.JobID = 7
	rec.User = "u01"
	rec.Class = "production-cfd"
	rec.NodesUsed = 16
	rec.WallSeconds = 7200
	var nd hpm.Delta
	nd.Counts[hpm.User][hpm.EvCycles] = 1 << 40
	rec.PerNode = append(rec.PerNode, nd)
	res.Records = append(res.Records, rec)
	res.MaxGflops15min = 5.7
	res.DroppedRecords = 3
	return res
}

func TestRoundTrip(t *testing.T) {
	res := sampleResult()
	var buf bytes.Buffer
	if err := Write(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, res)
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	r := strings.NewReader(`{"version": 99, "result": {}}`)
	if _, err := Read(r); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	res := sampleResult()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFile(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("file round trip mismatch")
	}
}

func TestGzipFileRoundTrip(t *testing.T) {
	res := sampleResult()
	dir := t.TempDir()
	plain := filepath.Join(dir, "trace.json")
	gz := filepath.Join(dir, "trace.json.gz")
	if err := WriteFile(plain, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(gz, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("gzip round trip mismatch")
	}
	// Compression must actually shrink the file.
	pi, _ := fileSize(t, plain)
	gi, _ := fileSize(t, gz)
	if gi >= pi {
		t.Fatalf("gzip (%d) not smaller than plain (%d)", gi, pi)
	}
}

func fileSize(t *testing.T, path string) (int64, error) {
	t.Helper()
	fi, err := statFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi, nil
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadFileBadGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json.gz")
	if err := writeRaw(path, []byte("not gzip")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("bad gzip accepted")
	}
}

func TestRecordsCSV(t *testing.T) {
	res := sampleResult()
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, res.Records); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+len(res.Records) {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job_id,user,class,nodes") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "u01") || !strings.Contains(lines[1], "production-cfd") {
		t.Fatalf("row = %q", lines[1])
	}
	// The header column count matches every row.
	cols := strings.Count(lines[0], ",")
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("ragged row: %q", l)
		}
	}
}

func TestRecordsCSVFile(t *testing.T) {
	res := sampleResult()
	path := filepath.Join(t.TempDir(), "jobs.csv")
	if err := WriteRecordsCSVFile(path, res.Records); err != nil {
		t.Fatal(err)
	}
	if sz, err := statFile(path); err != nil || sz == 0 {
		t.Fatalf("csv file size %d err %v", sz, err)
	}
}

// TestFailedWriteKeepsPreviousFile drives the one atomic writer behind
// every artifact: a write that fails mid-encode (JSON rejects a NaN)
// reports the error, leaves the previous file byte-identical, and leaves
// no temp file behind — for a plain and a gzipped database and for a
// checkpoint alike.
func TestFailedWriteKeepsPreviousFile(t *testing.T) {
	bad := sampleResult()
	bad.MaxGflops15min = math.NaN()
	writers := map[string]func(path string, res workload.Result) error{
		"db.json":    WriteFile,
		"db.json.gz": WriteFile,
		"fleet.json.gz": func(path string, res workload.Result) error {
			cp := sampleCheckpoint()
			cp.Done[0].Result = res
			return WriteFleetCheckpointFile(path, cp)
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, name)
			if err := write(path, sampleResult()); err != nil {
				t.Fatalf("first write: %v", err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := write(path, bad); err == nil {
				t.Fatal("a NaN result was written without error")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a failed write changed the existing file")
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 || entries[0].Name() != name {
				t.Fatalf("temporary files left behind: %v", entries)
			}
		})
	}
}

// A database's gzip CRC covers every byte, but only a reader that reads
// to the end of the stream checks it: a flipped byte anywhere in the file
// must fail the load, not decode to a silently different Result.
func TestReadFileRejectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json.gz")
	if err := WriteFile(path, sampleResult()); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last 8 bytes are the CRC-32 and length trailer.
	for name, off := range map[string]int{"deflate data": len(good) / 2, "crc": len(good) - 8} {
		bad := bytes.Clone(good)
		bad[off] ^= 0xff
		if err := writeRaw(path, bad); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("flipped byte in the %s: database accepted", name)
		}
	}
}

// Read, like the checkpoint reader, rejects anything after the envelope.
func TestReadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{}`)
	if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing data: got %v", err)
	}
}
