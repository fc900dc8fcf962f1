package cli

// pprof capture for -cpuprofile/-memprofile: the CPU profile must stop
// before the process exits, and the memory profile wants a GC first.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startCPUProfile begins CPU profiling into path and returns the stop
// function. With an empty path it is a no-op returning a no-op stop.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile writes a heap profile to path (after a GC, so the
// profile reflects live objects rather than garbage). Empty path is a
// no-op.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("mem profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
