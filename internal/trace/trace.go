// Package trace persists campaign results: the per-day counter reductions
// and the PBS accounting records, in a versioned JSON envelope. This is
// the stand-in for the files the real deployment wrote ("these values are
// written to a file for later processing and viewing by both users and
// system personnel") and lets cmd/spsim produce a database that
// cmd/experiments analyses separately.
package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/pbs"
	"repro/internal/workload"
)

// FormatVersion is the database format this build writes: format 2
// stores each record's PerNode as a counter block (see block.go). Format
// 1, the same document with PerNode as plain JSON arrays, is still read
// (readOnlyVersion) so that saved databases keep loading; nothing writes
// it any more.
const FormatVersion = 2

// readOnlyVersion is the plain-JSON format 1 of both the database and the
// fleet checkpoint, which the readers still accept and convert.
const readOnlyVersion = 1

// ErrVersion marks an artifact written in a format this build does not
// read; ErrCorrupt marks one that is not a well-formed artifact of its
// kind: bad gzip data or CRC, bad JSON, a bad counter block, trailing data
// or an inconsistent checkpoint. Match them with errors.Is.
var (
	ErrVersion = errors.New("unsupported format version")
	ErrCorrupt = errors.New("corrupt")
)

// corrupt marks err as ErrCorrupt.
func corrupt(err error) error { return fmt.Errorf("%w: %w", ErrCorrupt, err) }

// envelope is the on-disk form of format 2.
type envelope struct {
	Version int        `json:"version"`
	Result  wireResult `json:"result"`
}

// envelopeV1 is the on-disk form of format 1.
type envelopeV1 struct {
	Version int             `json:"version"`
	Result  workload.Result `json:"result"`
}

// Write serialises the result to w as JSON.
func Write(w io.Writer, res workload.Result) error {
	if err := json.NewEncoder(w).Encode(envelope{Version: FormatVersion, Result: toWire(res)}); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

// Read deserialises a result from r, in format 2 or format 1.
func Read(r io.Reader) (workload.Result, error) {
	res, err := readResult(r)
	if err != nil {
		return workload.Result{}, fmt.Errorf("trace: decode: %w", err)
	}
	return res, nil
}

// readResult decodes either format; format 1 needs no conversion.
func readResult(r io.Reader) (workload.Result, error) {
	dec, v, err := openVersioned(r)
	if err != nil {
		return workload.Result{}, err
	}
	switch v {
	case FormatVersion:
		var env envelope
		if err := decodeDocument(dec, &env); err != nil {
			return workload.Result{}, err
		}
		return fromWire(env.Result)
	case readOnlyVersion:
		var env envelopeV1
		if err := decodeDocument(dec, &env); err != nil {
			return workload.Result{}, err
		}
		return env.Result, nil
	}
	return workload.Result{}, fmt.Errorf("%w %d, want %d", ErrVersion, v, FormatVersion)
}

// openVersioned returns a decoder at the start of r's JSON document and
// the value of the document's "version" member, which must be its first
// member, as every writer puts it: the version is read from a peek at the
// head of the stream, so the document itself is decoded once, streaming,
// into the type for that version.
func openVersioned(r io.Reader) (*json.Decoder, int, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(br.Size())
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, 0, readErr(err)
	}
	dec := json.NewDecoder(bytes.NewReader(head))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, 0, corrupt(errors.New("not a JSON object"))
	}
	if key, err := dec.Token(); err != nil || key != "version" {
		return nil, 0, corrupt(errors.New(`"version" is not the first member`))
	}
	var v int
	if err := dec.Decode(&v); err != nil {
		return nil, 0, corrupt(fmt.Errorf("version: %w", err))
	}
	return json.NewDecoder(br), v, nil
}

// decodeDocument decodes the document dec is at into v and requires the
// stream to end after it — which is also what makes a gzip reader check
// its CRC.
func decodeDocument(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return readErr(err)
	}
	return readErr(expectEOF(dec))
}

// readErr marks a decode error ErrCorrupt — bad JSON, or gzip data that
// fails to inflate or to match its CRC — unless it is an error reading
// the file itself.
func readErr(err error) error {
	if err == nil || errors.As(err, new(*fs.PathError)) {
		return err
	}
	return corrupt(err)
}

// WriteFile writes the result to path; a ".gz" suffix enables gzip
// compression (the counter arrays compress extremely well). The write is
// atomic: a failed write leaves any existing file untouched.
func WriteFile(path string, res workload.Result) error {
	return writeFileAtomic(path, "trace", func(w io.Writer) error { return Write(w, res) })
}

// writeFileAtomic is how the database, profile-cache and checkpoint
// writers put a file on disk: encode streams into a temp file beside path
// (gzipped when path ends in ".gz"), every close is checked, and only a
// complete file is renamed over path. On any failure the temp file is
// removed and path keeps its previous contents, so a reader — or a run
// killed mid-write — never sees a partial artifact. I/O errors are
// prefixed with prefix; encode's own errors pass through unchanged.
func writeFileAtomic(path, prefix string, encode func(io.Writer) error) error {
	return writeRawAtomic(path, prefix, func(f io.Writer) error {
		if !isGzip(path) {
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
	})
}

// writeRawAtomic is writeFileAtomic without the compression layer: write
// gets the temp file itself, for callers that hand it finished gzip
// members.
func writeRawAtomic(path, prefix string, write func(io.Writer) error) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	// CreateTemp makes the file owner-only; an artifact stays as readable
	// as os.Create would make it under the usual umask.
	if err = f.Chmod(0o644); err != nil {
		err = fmt.Errorf("%s: %w", prefix, err)
	} else {
		err = write(f)
	}
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

// isGzip reports whether an artifact path selects gzip compression.
func isGzip(path string) bool { return strings.HasSuffix(path, ".gz") }

// gzipWriters recycles compressors across gzip members: a member is often
// a few bytes of JSON glue, and a fresh compressor costs far more than it.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// writeGzipMember writes b to w as one complete gzip member. Concatenated
// members are one gzip stream to every reader (gzip.NewReader is
// multistream by default, as is zcat), so a file can be assembled from
// members compressed at different times.
func writeGzipMember(w io.Writer, b []byte) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(gz)
	gz.Reset(w)
	if _, err := gz.Write(b); err != nil {
		return err
	}
	return gz.Close()
}

// expectEOF requires dec to be at the end of its input. Reading to the end
// is also what makes a gzip reader check its CRC, so a decoder that stops
// after the envelope would accept a corrupt stream.
func expectEOF(dec *json.Decoder) error {
	err := dec.Decode(new(json.RawMessage))
	switch {
	case errors.Is(err, io.EOF):
		return nil
	case err == nil:
		return errors.New("trailing data after envelope")
	case errors.As(err, new(*json.SyntaxError)):
		return fmt.Errorf("trailing data after envelope: %w", err)
	}
	return err
}

// ReadFile loads a result from path, gzipped or not.
func ReadFile(path string) (workload.Result, error) {
	return readFile(path, "trace", Read)
}

// gzipMagic opens every gzip stream (RFC 1952).
var gzipMagic = []byte{0x1f, 0x8b}

// readFile opens path and hands it to decode, decompressed if it starts
// with the gzip magic bytes: readers go by content, whatever the file is
// called (the writers choose compression from the ".gz" suffix). Open
// and gzip-header errors are prefixed with prefix, and a header that does
// not parse is ErrCorrupt; decode's own errors pass through unchanged.
func readFile[T any](path, prefix string, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", prefix, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var r io.Reader = br
	if magic, _ := br.Peek(len(gzipMagic)); bytes.Equal(magic, gzipMagic) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return zero, fmt.Errorf("%s: %w", prefix, corrupt(fmt.Errorf("gzip: %w", err)))
		}
		defer gz.Close()
		r = gz
	}
	return decode(r)
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

// WriteRecordsCSVFile writes the job database to a file, atomically as
// every artifact is (and gzipped for a ".gz" path).
func WriteRecordsCSVFile(path string, recs []pbs.Record) error {
	return writeFileAtomic(path, "trace", func(w io.Writer) error { return WriteRecordsCSV(w, recs) })
}
