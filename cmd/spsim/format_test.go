package main

// Artifacts written by format 1 of the database and checkpoint (plain-JSON
// counter arrays) must keep working under the format 2 readers: a saved
// database loads to the same Result a fresh run writes, and a campaign
// halted under format 1 resumes to the same database as an uninterrupted
// run. The fixtures under testdata were written by spsim before format 2:
//
//	spsim -days 1 -seed 3 -o format1-campaign.json.gz
//	spsim -days 1 -seed 3 -clusters 2 -shards 1 \
//	    -checkpoint format1-halted-fleet.json.gz -halt-after 1

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// resultHash is fnv-64a over the Result's own JSON, the golden tests' hash.
func resultHash(t *testing.T, res workload.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// formatVersion returns the "version" member of a gzipped artifact.
func formatVersion(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Version int }
	if err := json.NewDecoder(zr).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc.Version
}

func TestFormat1DatabaseLoads(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign run in -short mode")
	}
	old := filepath.Join("testdata", "format1-campaign.json.gz")
	if v := formatVersion(t, old); v != 1 {
		t.Fatalf("fixture is format %d, want 1", v)
	}
	fresh := filepath.Join(t.TempDir(), "campaign.json.gz")
	if _, stderr, code := run(t, "-days", "1", "-seed", "3", "-o", fresh); code != 0 {
		t.Fatalf("spsim: exit %d\nstderr: %s", code, stderr)
	}
	if v := formatVersion(t, fresh); v != trace.FormatVersion {
		t.Fatalf("spsim wrote format %d, want %d", v, trace.FormatVersion)
	}
	want, err := trace.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadFile(old)
	if err != nil {
		t.Fatalf("format 1 database: %v", err)
	}
	if g, w := resultHash(t, got), resultHash(t, want); g != w {
		t.Fatalf("format 1 database hashes to %#x, the same campaign in format %d to %#x", g, trace.FormatVersion, w)
	}
}

func TestFormat1CheckpointResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet campaign in -short mode")
	}
	dir := t.TempDir()
	cp := filepath.Join(dir, "fleet.json.gz")
	src, err := os.Open(filepath.Join("testdata", "format1-halted-fleet.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if v := formatVersion(t, cp); v != 1 {
		t.Fatalf("fixture is format %d, want 1", v)
	}
	fleet := []string{"-days", "1", "-seed", "3", "-clusters", "2", "-shards", "1"}
	resumed, full := filepath.Join(dir, "resumed.json.gz"), filepath.Join(dir, "full.json.gz")
	if _, stderr, code := run(t, append(fleet, "-checkpoint", cp, "-resume", "-o", resumed)...); code != 0 {
		t.Fatalf("resume: exit %d\nstderr: %s", code, stderr)
	}
	if v := formatVersion(t, cp); v != trace.FleetCheckpointVersion {
		t.Errorf("resume rewrote the checkpoint as format %d, want %d", v, trace.FleetCheckpointVersion)
	}
	if _, stderr, code := run(t, append(fleet, "-o", full)...); code != 0 {
		t.Fatalf("uninterrupted run: exit %d\nstderr: %s", code, stderr)
	}
	a, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resuming a format 1 checkpoint wrote a different database than an uninterrupted run (%d vs %d bytes)", len(a), len(b))
	}
}
