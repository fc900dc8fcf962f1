package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Recorder streams campaign records into a trace. It tees off the
// generate stage via Tap, so the campaign being recorded is otherwise
// untouched — same plans, same simulation, same Result.
//
// Each tapped cluster encodes its records into a member of its own (a
// complete gzip member in a file trace), sharing nothing with the other
// clusters while it generates. A cluster's member is appended to the
// trace once the cluster has generated its last day and every
// lower-indexed cluster's member is in, so the trace is written in
// canonical cluster order: fleet shards may tap clusters concurrently and
// finish them in any order, and the bytes are the same at every shard
// count. Readers see one stream, since concatenated gzip members are one
// gzip stream to gzip.NewReader and zcat alike.
type Recorder struct {
	w  io.Writer // the trace: after the header, members in cluster order
	gz bool

	mu sync.Mutex
	// sealed marks clusters whose member is finished; guarded by mu.
	sealed []bool
	// members holds sealed members not yet appended; guarded by mu.
	members [][]byte
	// next is the first cluster whose member is not yet appended; guarded
	// by mu.
	next int
	// err is the first failure; after it the recorder goes inert and
	// Close reports it. Guarded by mu.
	err error
	// done is set by Close and Abort; guarded by mu.
	done bool

	// File-backed state (Create); nil for NewRecorder.
	f    *os.File
	tmp  string
	path string
}

// NewRecorder writes a trace to w as uncompressed JSON — the header
// immediately, each cluster's records once the cluster and all clusters
// before it have finished. Most callers want Create.
func NewRecorder(w io.Writer, h Header) (*Recorder, error) {
	return newRecorder(w, false, h)
}

// Create opens a gzip-compressed trace file at path. The trace is
// written to a temporary file in the same directory and renamed into
// place by Close, so a crash mid-campaign never leaves a plausible
// half-trace at the target path.
func Create(path string, h Header) (*Recorder, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("replay: create trace: %w", err)
	}
	// CreateTemp makes the file owner-only; a trace stays as readable as
	// the database and checkpoint written beside it.
	if err = f.Chmod(0o644); err != nil {
		err = fmt.Errorf("replay: create trace: %w", err)
	}
	var r *Recorder
	if err == nil {
		r, err = newRecorder(countingWriter{f, telBytesWritten}, true, h)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	r.f, r.tmp, r.path = f, f.Name(), path
	return r, nil
}

// newRecorder writes the header to w, as its own gzip member when
// compress is set, and returns a recorder expecting h.Clusters members.
func newRecorder(w io.Writer, compress bool, h Header) (*Recorder, error) {
	h.Format, h.Version = FormatName, FormatVersion
	if h.Clusters < 1 || len(h.ClusterDays) != h.Clusters {
		return nil, fmt.Errorf("replay: header has %d cluster day counts for %d clusters", len(h.ClusterDays), h.Clusters)
	}
	m := newMember(compress)
	if err := m.enc.Encode(h); err != nil {
		return nil, fmt.Errorf("replay: write header: %w", err)
	}
	b, err := m.finish()
	if err == nil {
		_, err = w.Write(b)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: write header: %w", err)
	}
	return &Recorder{
		w:       w,
		gz:      compress,
		sealed:  make([]bool, h.Clusters),
		members: make([][]byte, h.Clusters),
	}, nil
}

// seal hands over a cluster's finished member and appends every member
// the cluster-order frontier now allows.
func (r *Recorder) seal(cluster int, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.err != nil || r.done:
		return
	case cluster < 0 || cluster >= len(r.sealed):
		r.err = fmt.Errorf("replay: cluster %d recorded into a %d-cluster trace", cluster, len(r.sealed))
		return
	case r.sealed[cluster]:
		r.err = fmt.Errorf("replay: cluster %d recorded twice", cluster)
		return
	}
	r.sealed[cluster] = true
	r.members[cluster] = b
	for ; r.next < len(r.members) && r.sealed[r.next]; r.next++ {
		if _, err := r.w.Write(r.members[r.next]); err != nil {
			r.err = fmt.Errorf("replay: write records: %w", err)
			return
		}
		r.members[r.next] = nil
	}
}

// fail records err as the recorder's failure unless one came first.
func (r *Recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = err
	}
}

// Err reports the first write failure, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Close finishes the trace and, for file-backed recorders, renames the
// temporary file over the target path. Every cluster must have been
// tapped and have generated all of its days: an incomplete trace is an
// error. Close returns the first error the recorder hit anywhere — a
// trace that Closed cleanly is complete.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.err
	}
	r.done = true
	if r.err == nil && r.next < len(r.sealed) {
		r.err = fmt.Errorf("replay: trace incomplete: cluster %d did not record all its days", r.next)
	}
	if r.f != nil {
		if err := r.f.Close(); err != nil && r.err == nil {
			r.err = fmt.Errorf("replay: close trace: %w", err)
		}
		if r.err != nil {
			os.Remove(r.tmp)
		} else if err := os.Rename(r.tmp, r.path); err != nil {
			os.Remove(r.tmp)
			r.err = fmt.Errorf("replay: finalize trace: %w", err)
		}
	}
	return r.err
}

// Abort discards the trace: the temporary file is removed and nothing
// appears at the target path. Safe after Close (then a no-op).
func (r *Recorder) Abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	if r.f != nil {
		r.f.Close()
		os.Remove(r.tmp)
	}
}

// Tap wraps a cluster's generator so every plan it produces is recorded.
// For faulted configurations the tap also records the day's resolved
// fault schedule: faults.NewPlan is pure in (Config.Faults, seed, day,
// geometry), so deriving it here yields exactly the plan the campaign
// will derive at the day boundary — the trace stores the schedule as
// data and the replayer never re-derives it. The tap seals its member
// when it has generated cfg.Days days.
func (r *Recorder) Tap(cluster int, cfg workload.Config, g workload.Generator) workload.Generator {
	return &tapGenerator{rec: r, cluster: cluster, cfg: cfg, ticks: ticksPerDay(cfg), gen: g, m: newMember(r.gz)}
}

// tapGenerator records one cluster. Its member is touched only by the
// goroutine generating the cluster's days, until seal hands it over.
type tapGenerator struct {
	rec     *Recorder
	cluster int
	cfg     workload.Config
	ticks   int
	gen     workload.Generator
	m       *member // nil once sealed or failed
	days    int
}

// GenerateDay forwards to the wrapped generator and tees the plan out.
func (t *tapGenerator) GenerateDay(day int) workload.DayPlan {
	plan := t.gen.GenerateDay(day)
	if t.m == nil {
		t.rec.fail(fmt.Errorf("replay: cluster %d generated day %d after its last recorded day", t.cluster, day))
		return plan
	}
	rec := Record{Cluster: t.cluster, Day: day, Plan: plan}
	if t.cfg.Faults != nil {
		fp := faults.NewPlan(*t.cfg.Faults, t.cfg.Seed, day, t.cfg.Nodes, t.ticks)
		rec.Faults = &fp
	}
	if err := t.m.enc.Encode(rec); err != nil {
		t.m = nil
		t.rec.fail(fmt.Errorf("replay: write record: %w", err))
		return plan
	}
	telRecordsWritten.Inc()
	if t.days++; t.days == t.cfg.Days {
		b, err := t.m.finish()
		t.m = nil
		if err != nil {
			t.rec.fail(fmt.Errorf("replay: write records: %w", err))
			return plan
		}
		t.rec.seal(t.cluster, b)
	}
	return plan
}

// member is one gzip member of a file trace (plain JSON lines otherwise)
// being built in memory.
type member struct {
	buf bytes.Buffer
	gz  *gzip.Writer
	enc *json.Encoder
}

func newMember(compress bool) *member {
	m := &member{}
	var w io.Writer = &m.buf
	if compress {
		m.gz = gzip.NewWriter(&m.buf)
		w = m.gz
	}
	m.enc = json.NewEncoder(w)
	return m
}

// finish completes the member and returns its bytes.
func (m *member) finish() ([]byte, error) {
	if m.gz != nil {
		if err := m.gz.Close(); err != nil {
			return nil, err
		}
	}
	return m.buf.Bytes(), nil
}

// countingWriter feeds the trace-size telemetry (compressed bytes).
type countingWriter struct {
	w io.Writer
	c *telemetry.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}
