package trace

// Fuzz targets for the profile-cache and database codecs (the checkpoint's
// is in checkpoint_test.go). The profile-cache decoder fronts files users
// hand to -profile-cache, so arbitrary bytes must produce an error, never
// a panic, and anything it accepts must survive an encode/decode cycle
// unchanged (the memoized store would otherwise drift between runs).

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func FuzzProfileCacheDecode(f *testing.F) {
	// Hand seeds covering the envelope's edges; the committed corpus under
	// testdata/fuzz adds a dump written by the real encoder.
	f.Add([]byte(`{"version":1,"measurements":[]}`))
	f.Add([]byte(`{"version":1,"measurements":null}`))
	f.Add([]byte(`{"version":2,"measurements":[]}`))
	f.Add([]byte(`{"version":1,"measurements":[{"Kernel":"cfd","Instrs":1000,"Seconds":0.5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version":1,"measurements":[{"Kernel":"nul","Instrs":18446744073709551615}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := ReadProfileCache(bytes.NewReader(data))
		if err != nil {
			return // rejected input; the only requirement is not panicking
		}
		// Accepted input must round-trip bit-identically through the
		// writer: encode what we decoded, decode it again, compare.
		var buf bytes.Buffer
		if err := WriteProfileCache(&buf, ms); err != nil {
			t.Fatalf("re-encoding accepted measurements failed: %v", err)
		}
		again, err := ReadProfileCache(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoder's output failed: %v", err)
		}
		if !reflect.DeepEqual(ms, again) {
			t.Fatalf("round trip changed the measurements:\n first: %+v\nsecond: %+v", ms, again)
		}
	})
}

// FuzzDatabaseDecode: the database decoder fronts files users hand to
// experiments -trace, in either format. Arbitrary bytes must produce a
// typed error (ErrCorrupt or ErrVersion), never a panic, and anything it
// accepts must re-encode — always as the current format — and decode
// again to the same Result.
func FuzzDatabaseDecode(f *testing.F) {
	// Hand seeds covering the envelope and counter-block edges; the
	// committed corpus under testdata/fuzz adds real format 1 and format 2
	// databases and damaged blocks.
	f.Add([]byte(`{"version":2,"result":{}}`))
	f.Add([]byte(`{"version":1,"result":{}}`))
	f.Add([]byte(`{"version":3,"result":{}}`))
	f.Add([]byte(`{"version":2,"result":{"Records":[{"JobID":1,"PerNode":null},{"JobID":2,"PerNode":"AA=="}]}}`))
	f.Add([]byte(`{"version":2,"result":{"Records":[{"JobID":1,"PerNode":""}]}}`))
	f.Add([]byte(`{"version":1,"result":{"Records":[{"JobID":1,"PerNode":[]},{"JobID":2,"PerNode":[{"Counts":[[1],[2]]}]}]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("rejection is neither ErrCorrupt nor ErrVersion: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, res); err != nil {
			t.Fatalf("re-encoding an accepted database failed: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding our own encoder's output failed: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("round trip changed the database:\n first: %+v\nsecond: %+v", res, again)
		}
	})
}
