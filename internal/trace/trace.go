// Package trace persists campaign results: the per-day counter reductions
// and the PBS accounting records, in a versioned JSON envelope. This is
// the stand-in for the files the real deployment wrote ("these values are
// written to a file for later processing and viewing by both users and
// system personnel") and lets cmd/spsim produce a database that
// cmd/experiments analyses separately.
package trace

import (
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/pbs"
	"repro/internal/workload"
)

// FormatVersion guards against reading incompatible files.
const FormatVersion = 1

// Envelope is the on-disk form.
type Envelope struct {
	Version int             `json:"version"`
	Result  workload.Result `json:"result"`
}

// Write serialises the result to w as JSON.
func Write(w io.Writer, res workload.Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Envelope{Version: FormatVersion, Result: res}); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Read deserialises a result from r.
func Read(r io.Reader) (workload.Result, error) {
	var env Envelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return workload.Result{}, fmt.Errorf("trace: decode: %w", err)
	}
	if env.Version != FormatVersion {
		return workload.Result{}, fmt.Errorf("trace: version %d, want %d", env.Version, FormatVersion)
	}
	return env.Result, nil
}

// WriteFile writes the result to path; a ".gz" suffix enables gzip
// compression (the counter arrays compress extremely well). The write is
// atomic: a failed write leaves any existing file untouched.
func WriteFile(path string, res workload.Result) error {
	return writeFileAtomic(path, "trace", func(w io.Writer) error { return Write(w, res) })
}

// writeFileAtomic is how the database, profile-cache and checkpoint
// writers put a file on disk: encode streams into a temp file beside path (gzipped when path ends in
// ".gz"), every close is checked, and only a complete file is renamed
// over path. On any failure the temp file is removed and path keeps its
// previous contents, so a reader — or a run killed mid-write — never sees
// a partial artifact. I/O errors are prefixed with prefix; encode's own
// errors pass through unchanged.
func writeFileAtomic(path, prefix string, encode func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	err = func() error {
		// CreateTemp makes the file owner-only; an artifact stays as
		// readable as os.Create would make it under the usual umask.
		if err := f.Chmod(0o644); err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		if !strings.HasSuffix(path, ".gz") {
			return encode(f)
		}
		gz := gzip.NewWriter(f)
		if err := encode(gz); err != nil {
			return err
		}
		if err := gz.Close(); err != nil {
			return fmt.Errorf("%s: %w", prefix, err)
		}
		return nil
	}()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: %w", prefix, cerr)
	}
	if err == nil {
		if rerr := os.Rename(f.Name(), path); rerr != nil {
			err = fmt.Errorf("%s: %w", prefix, rerr)
		}
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// ReadFile loads a result from path, transparently handling ".gz".
func ReadFile(path string) (workload.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Result{}, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return workload.Result{}, fmt.Errorf("trace: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return Read(r)
}

// WriteRecordsCSV exports the batch-job database as CSV — the form in
// which "users and system personnel may examine and analyze" job counters.
// One row per job with the headline derived quantities.
func WriteRecordsCSV(w io.Writer, recs []pbs.Record) error {
	cw := csv.NewWriter(w)
	header := []string{
		"job_id", "user", "class", "nodes", "submit_s", "start_s", "end_s",
		"wall_s", "preemptions", "mflops_per_node", "job_mflops", "mips_per_node",
		"fma_fraction", "flops_per_memref", "cache_miss_ratio", "tlb_miss_ratio",
		"sys_user_fxu",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: csv: %w", err)
	}
	f := strconv.FormatFloat
	for _, r := range recs {
		rates := r.PerNodeRates()
		row := []string{
			strconv.Itoa(r.JobID),
			r.User,
			r.Class,
			strconv.Itoa(r.NodesUsed),
			f(r.SubmitAt.Seconds(), 'f', 1, 64),
			f(r.StartAt.Seconds(), 'f', 1, 64),
			f(r.EndAt.Seconds(), 'f', 1, 64),
			f(r.WallSeconds, 'f', 1, 64),
			strconv.Itoa(r.Preemptions),
			f(rates.MflopsAll, 'f', 3, 64),
			f(r.JobMflops(), 'f', 2, 64),
			f(rates.Mips, 'f', 3, 64),
			f(rates.FMAFraction(), 'f', 4, 64),
			f(rates.FlopsPerMemRef(), 'f', 4, 64),
			f(rates.CacheMissRatio(), 'f', 6, 64),
			f(rates.TLBMissRatio(), 'f', 6, 64),
			f(r.SystemUserFXURatio(), 'f', 4, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: csv: %w", err)
	}
	return nil
}

// WriteRecordsCSVFile writes the job database to a file.
func WriteRecordsCSVFile(path string, recs []pbs.Record) error {
	fl, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer fl.Close()
	return WriteRecordsCSV(fl, recs)
}
