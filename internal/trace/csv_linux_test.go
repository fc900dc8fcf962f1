package trace

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/pbs"
)

// csvChildEnv names the file the re-executed test binary writes its CSV
// export to under a file-size limit.
const csvChildEnv = "TRACE_CSV_FSIZE_CHILD"

// TestRecordsCSVFileFailedWriteKeepsPreviousFile makes the CSV export fail
// halfway: the test re-runs itself with RLIMIT_FSIZE below the export's
// size, so the write gets EFBIG after the first few KB. The export must
// report the error, leave the previous file byte-identical and leave no
// temp file, as the database writers do.
func TestRecordsCSVFileFailedWriteKeepsPreviousFile(t *testing.T) {
	if path := os.Getenv(csvChildEnv); path != "" {
		signal.Ignore(syscall.SIGXFSZ)
		var lim syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		lim.Cur = 4096
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		recs := make([]pbs.Record, 500)
		for i := range recs {
			recs[i] = sampleResult().Records[0]
			recs[i].JobID = i
		}
		if err := WriteRecordsCSVFile(path, recs); err == nil {
			t.Fatal("a CSV export beyond the file-size limit reported no error")
		}
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.csv")
	if err := WriteRecordsCSVFile(path, sampleResult().Records); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordsCSVFileFailedWriteKeepsPreviousFile$")
	cmd.Env = append(os.Environ(), csvChildEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a failed export changed the existing file (%d -> %d bytes)", len(before), len(after))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temporary files left behind: %v", entries)
	}
}
