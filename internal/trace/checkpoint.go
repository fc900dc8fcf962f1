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
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/workload"
)

// FleetCheckpointVersion guards against reading incompatible checkpoint
// files. It must change whenever the simulator's behaviour changes in a
// way that alters any campaign result — resuming from a stale checkpoint
// would otherwise silently mix old and new bits in one merged Result.
const FleetCheckpointVersion = 1

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

// WriteFleetCheckpoint serialises the checkpoint to w as JSON.
func WriteFleetCheckpoint(w io.Writer, cp FleetCheckpoint) error {
	cp.Version = FleetCheckpointVersion
	if err := json.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("trace: checkpoint encode: %w", err)
	}
	return nil
}

// ReadFleetCheckpoint deserialises and validates a checkpoint from r. It
// rejects version skew, trailing garbage after the envelope, and any
// internally inconsistent progress record (out-of-range or duplicate
// cluster indexes) — a corrupt checkpoint must fail the resume, never
// seed a silently wrong merge.
func ReadFleetCheckpoint(r io.Reader) (FleetCheckpoint, error) {
	var cp FleetCheckpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cp); err != nil {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint decode: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return FleetCheckpoint{}, errors.New("trace: checkpoint decode: trailing data after envelope")
	}
	if cp.Version != FleetCheckpointVersion {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint version %d, want %d", cp.Version, FleetCheckpointVersion)
	}
	if cp.Clusters < 1 {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint fleet size %d, want >= 1", cp.Clusters)
	}
	seen := make(map[int]bool, len(cp.Done))
	for _, d := range cp.Done {
		if d.Cluster < 0 || d.Cluster >= cp.Clusters {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint cluster %d out of range [0,%d)", d.Cluster, cp.Clusters)
		}
		if seen[d.Cluster] {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint cluster %d recorded twice", d.Cluster)
		}
		seen[d.Cluster] = true
	}
	cseen := make(map[int]bool, len(cp.Cursors))
	for _, c := range cp.Cursors {
		if c.Cluster < 0 || c.Cluster >= cp.Clusters {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint cursor for cluster %d out of range [0,%d)", c.Cluster, cp.Clusters)
		}
		if cseen[c.Cluster] {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint cursor for cluster %d recorded twice", c.Cluster)
		}
		cseen[c.Cluster] = true
		if c.NextDay < 0 {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint cursor for cluster %d has negative day %d", c.Cluster, c.NextDay)
		}
	}
	return cp, nil
}

// WriteFleetCheckpointFile atomically persists the checkpoint to path: it
// writes a temporary file in the same directory and renames it over the
// target, so a kill mid-write leaves the previous checkpoint intact — the
// whole point of checkpointing. A ".gz" suffix enables gzip compression.
func WriteFleetCheckpointFile(path string, cp FleetCheckpoint) error {
	return writeFileAtomic(path, "trace: checkpoint", func(w io.Writer) error { return WriteFleetCheckpoint(w, cp) })
}

// ReadFleetCheckpointFile loads a checkpoint from path, transparently
// handling ".gz".
func ReadFleetCheckpointFile(path string) (FleetCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return FleetCheckpoint{}, fmt.Errorf("trace: checkpoint gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return ReadFleetCheckpoint(r)
}
