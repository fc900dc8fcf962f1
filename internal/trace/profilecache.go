package trace

// Persistence for the memoized profile store (the -profile-cache flag on
// cmd/spsim and cmd/experiments): the store's measurements, sorted in the
// store's canonical order, in the same versioned JSON envelope style as
// campaign results, with the same transparent ".gz" handling. Because a
// Measurement is a pure function of its key, loading a cache written by a
// previous process changes nothing but the time the first measurements
// take.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/profile"
)

// ProfileCacheVersion guards against reading incompatible cache files. It
// must change whenever the simulator's behaviour changes in a way that
// alters any measurement — a stale cache would otherwise silently pin the
// old numbers.
const ProfileCacheVersion = 1

// profileCacheEnvelope is the on-disk form.
type profileCacheEnvelope struct {
	Version      int                   `json:"version"`
	Measurements []profile.Measurement `json:"measurements"`
}

// WriteProfileCache serialises measurements to w as JSON.
func WriteProfileCache(w io.Writer, ms []profile.Measurement) error {
	enc := json.NewEncoder(w)
	env := profileCacheEnvelope{Version: ProfileCacheVersion, Measurements: ms}
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("trace: profile cache encode: %w", err)
	}
	return nil
}

// ReadProfileCache deserialises measurements from r.
func ReadProfileCache(r io.Reader) ([]profile.Measurement, error) {
	var env profileCacheEnvelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("trace: profile cache decode: %w", corrupt(err))
	}
	if err := expectEOF(dec); err != nil {
		return nil, fmt.Errorf("trace: profile cache decode: %w", corrupt(err))
	}
	if env.Version != ProfileCacheVersion {
		return nil, fmt.Errorf("trace: profile cache: %w %d, want %d", ErrVersion, env.Version, ProfileCacheVersion)
	}
	return env.Measurements, nil
}

// WriteProfileCacheFile persists a store's measurements to path; a ".gz"
// suffix enables gzip compression.
func WriteProfileCacheFile(path string, s *profile.Store) error {
	return writeFileAtomic(path, "trace", func(w io.Writer) error { return WriteProfileCache(w, s.Entries()) })
}

// LoadProfileCacheFile loads a persisted cache, gzipped or not, into the
// store. A missing file is not an error — the first run of a warm/cold
// cycle starts cold.
func LoadProfileCacheFile(path string, s *profile.Store) error {
	ms, err := readFile(path, "trace", ReadProfileCache)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	s.AddAll(ms)
	return nil
}
