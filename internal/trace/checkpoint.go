package trace

// Fleet campaign checkpoints: the durable record that lets a multi-year
// fleet campaign survive a kill and restart bit-identically. The unit of
// resumable progress is the completed cluster — a cluster campaign's
// Result is a pure function of (Config, Mix, seed), so anything
// in-flight at the kill is simply re-run from its own day 0 on resume
// and lands on the same bits. The checkpoint therefore carries the
// completed clusters' full Results (the reducer state) plus per-cluster
// day cursors (the generator frontier, recorded for progress reporting
// and cross-checked on load), in the same versioned JSON envelope style
// as campaign traces, with the same transparent ".gz" handling.
//
// A checkpoint is bound to the fleet that wrote it by FleetID, a hash of
// every member's (Config, Mix) — resuming against a different fleet
// definition is an error, not a silent wrong answer. Execution knobs
// (Workers, shard count) are excluded from Config's JSON form, so a
// resume may use any shard or worker count.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/workload"
)

// FleetCheckpointVersion guards against reading incompatible checkpoint
// files. It must change whenever the simulator's behaviour changes in a
// way that alters any campaign result — resuming from a stale checkpoint
// would otherwise silently mix old and new bits in one merged Result.
// Version 2 stores each done cluster's Result as the database does (see
// block.go); version 1, plain JSON, is still read so that a campaign
// halted under it can resume.
const FleetCheckpointVersion = 2

// FleetClusterResult is one completed cluster's campaign reduction.
type FleetClusterResult struct {
	Cluster int             `json:"cluster"`
	Result  workload.Result `json:"result"`
}

// FleetCursor records how far a cluster's generator had advanced when
// the checkpoint was written: NextDay is the first day not yet fully
// simulated. For completed clusters NextDay equals the cluster's Days;
// for in-flight clusters it marks lost work a resume re-runs from day 0.
type FleetCursor struct {
	Cluster int `json:"cluster"`
	NextDay int `json:"next_day"`
}

// FleetCheckpoint is the on-disk form.
type FleetCheckpoint struct {
	Version int `json:"version"`
	// FleetID binds the checkpoint to a fleet definition: the fnv-64a
	// hash of every member's serialized (Config, Mix).
	FleetID uint64 `json:"fleet_id"`
	// Clusters is the fleet size the checkpoint was written under.
	Clusters int                  `json:"clusters"`
	Done     []FleetClusterResult `json:"done"`
	Cursors  []FleetCursor        `json:"cursors"`
}

// wireCheckpoint and wireCluster are the on-disk form of version 2.
type wireCheckpoint struct {
	Version  int           `json:"version"`
	FleetID  uint64        `json:"fleet_id"`
	Clusters int           `json:"clusters"`
	Done     []wireCluster `json:"done"`
	Cursors  []FleetCursor `json:"cursors"`
}

type wireCluster struct {
	Cluster int        `json:"cluster"`
	Result  wireResult `json:"result"`
}

// WriteFleetCheckpoint serialises the checkpoint to w as JSON.
func WriteFleetCheckpoint(w io.Writer, cp FleetCheckpoint) error {
	wc := wireCheckpoint{Version: FleetCheckpointVersion, FleetID: cp.FleetID, Clusters: cp.Clusters, Cursors: cp.Cursors}
	if cp.Done != nil {
		wc.Done = make([]wireCluster, len(cp.Done))
		for i, d := range cp.Done {
			wc.Done[i] = wireCluster{Cluster: d.Cluster, Result: toWire(d.Result)}
		}
	}
	if err := json.NewEncoder(w).Encode(wc); err != nil {
		return fmt.Errorf("trace: checkpoint encode: %w", err)
	}
	return nil
}

// ReadFleetCheckpoint deserialises and validates a checkpoint from r, in
// version 2 or version 1. It rejects version skew (ErrVersion), and
// trailing garbage after the envelope, a bad counter block and any
// internally inconsistent progress record — out-of-range or duplicate
// cluster indexes — as ErrCorrupt: a corrupt checkpoint must fail the
// resume, never seed a silently wrong merge.
func ReadFleetCheckpoint(r io.Reader) (FleetCheckpoint, error) {
	cp, err := readFleetCheckpoint(r)
	if err != nil {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint decode: %w", err)
	}
	if err := cp.check(); err != nil {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint: %w", corrupt(err))
	}
	return cp, nil
}

// readFleetCheckpoint decodes either version into the in-memory form,
// whose Version is then always FleetCheckpointVersion: a checkpoint read
// from version 1 is written back as version 2.
func readFleetCheckpoint(r io.Reader) (FleetCheckpoint, error) {
	dec, v, err := openVersioned(r)
	if err != nil {
		return FleetCheckpoint{}, err
	}
	var cp FleetCheckpoint
	switch v {
	case FleetCheckpointVersion:
		var wc wireCheckpoint
		if err := decodeDocument(dec, &wc); err != nil {
			return FleetCheckpoint{}, err
		}
		cp = FleetCheckpoint{FleetID: wc.FleetID, Clusters: wc.Clusters, Cursors: wc.Cursors}
		if wc.Done != nil {
			cp.Done = make([]FleetClusterResult, len(wc.Done))
		}
		for i, d := range wc.Done {
			res, err := fromWire(d.Result)
			if err != nil {
				return FleetCheckpoint{}, fmt.Errorf("cluster %d: %w", d.Cluster, err)
			}
			cp.Done[i] = FleetClusterResult{Cluster: d.Cluster, Result: res}
		}
	case readOnlyVersion:
		if err := decodeDocument(dec, &cp); err != nil {
			return FleetCheckpoint{}, err
		}
	default:
		return FleetCheckpoint{}, fmt.Errorf("%w %d, want %d", ErrVersion, v, FleetCheckpointVersion)
	}
	cp.Version = FleetCheckpointVersion
	return cp, nil
}

// check validates the checkpoint's progress record.
func (cp FleetCheckpoint) check() error {
	if cp.Clusters < 1 {
		return fmt.Errorf("fleet size %d, want >= 1", cp.Clusters)
	}
	seen := make(map[int]bool, len(cp.Done))
	for _, d := range cp.Done {
		if d.Cluster < 0 || d.Cluster >= cp.Clusters {
			return fmt.Errorf("cluster %d out of range [0,%d)", d.Cluster, cp.Clusters)
		}
		if seen[d.Cluster] {
			return fmt.Errorf("cluster %d recorded twice", d.Cluster)
		}
		seen[d.Cluster] = true
	}
	cseen := make(map[int]bool, len(cp.Cursors))
	for _, c := range cp.Cursors {
		if c.Cluster < 0 || c.Cluster >= cp.Clusters {
			return fmt.Errorf("cursor for cluster %d out of range [0,%d)", c.Cluster, cp.Clusters)
		}
		if cseen[c.Cluster] {
			return fmt.Errorf("cursor for cluster %d recorded twice", c.Cluster)
		}
		cseen[c.Cluster] = true
		if c.NextDay < 0 {
			return fmt.Errorf("cursor for cluster %d has negative day %d", c.Cluster, c.NextDay)
		}
	}
	return nil
}

// FleetPart is one completed cluster's checkpoint entry, encoded once by
// EncodeFleetPart and then reused by every checkpoint write that lists the
// cluster as done. For a ".gz" path it is a complete gzip member.
type FleetPart struct {
	b  []byte
	gz bool
}

// EncodeFleetPart encodes one completed cluster for the checkpoint at
// path: the JSON WriteFleetCheckpoint writes for that "done" element, as
// a gzip member when path ends in ".gz".
func EncodeFleetPart(path string, d FleetClusterResult) (FleetPart, error) {
	b, err := json.Marshal(wireCluster{Cluster: d.Cluster, Result: toWire(d.Result)})
	if err != nil {
		return FleetPart{}, fmt.Errorf("trace: checkpoint encode: %w", err)
	}
	p := FleetPart{b: b, gz: isGzip(path)}
	if p.gz {
		var buf bytes.Buffer
		if err := writeGzipMember(&buf, b); err != nil {
			return FleetPart{}, fmt.Errorf("trace: checkpoint encode: %w", err)
		}
		p.b = buf.Bytes()
	}
	return p, nil
}

// WriteFleetCheckpointParts atomically writes a checkpoint whose completed
// clusters are already encoded: only the envelope around them and the
// cursors are encoded here. The file decompresses to exactly what
// WriteFleetCheckpoint writes for the same checkpoint — done == nil
// writes "done":null, as a nil Done does — and a ".gz" file is a
// sequence of gzip members, one per part plus the JSON between them.
func WriteFleetCheckpointParts(path string, fleetID uint64, clusters int, done []FleetPart, cursors []FleetCursor) error {
	gz := isGzip(path)
	for _, p := range done {
		if p.gz != gz {
			return fmt.Errorf("trace: checkpoint: part encoded for a different compression than %s", path)
		}
	}
	tail, err := json.Marshal(cursors)
	if err != nil {
		return fmt.Errorf("trace: checkpoint encode: %w", err)
	}
	tail = append(append([]byte(`],"cursors":`), tail...), "}\n"...)
	head := fmt.Appendf(nil, `{"version":%d,"fleet_id":%d,"clusters":%d,"done":[`, FleetCheckpointVersion, fleetID, clusters)
	if done == nil {
		head = append(head[:len(head)-1], "null"...)
		tail = tail[1:]
	}
	return writeRawAtomic(path, "trace: checkpoint", func(w io.Writer) error {
		glue := func(b []byte) error {
			if gz {
				return writeGzipMember(w, b)
			}
			_, err := w.Write(b)
			return err
		}
		if err := glue(head); err != nil {
			return err
		}
		for i, p := range done {
			if i > 0 {
				if err := glue([]byte(",")); err != nil {
					return err
				}
			}
			if _, err := w.Write(p.b); err != nil {
				return err
			}
		}
		return glue(tail)
	})
}

// WriteFleetCheckpointFile atomically persists the checkpoint to path: it
// writes a temporary file in the same directory and renames it over the
// target, so a kill mid-write leaves the previous checkpoint intact — the
// whole point of checkpointing. A ".gz" suffix enables gzip compression.
func WriteFleetCheckpointFile(path string, cp FleetCheckpoint) error {
	var parts []FleetPart
	if cp.Done != nil {
		parts = make([]FleetPart, len(cp.Done))
	}
	for i, d := range cp.Done {
		p, err := EncodeFleetPart(path, d)
		if err != nil {
			return err
		}
		parts[i] = p
	}
	return WriteFleetCheckpointParts(path, cp.FleetID, cp.Clusters, parts, cp.Cursors)
}

// ReadFleetCheckpointFile loads a checkpoint from path, gzipped or not.
func ReadFleetCheckpointFile(path string) (FleetCheckpoint, error) {
	return readFile(path, "trace: checkpoint", ReadFleetCheckpoint)
}
