package main

// Host-speed calibration. The benchmark runs on a shared host whose speed
// drifts: in a busy period the same code runs up to twice as slow, for
// minutes at a time, in CPU time as well as in wall time. No number of
// repetitions inside one run averages that away. So before every
// repetition the run times a fixed reference, and the end-to-end times
// are scaled by how fast the reference ran:
//
//	reported = median(measured) × refNominalS / median(reference)
//
// A program change cannot move the reference: it uses only the standard
// library, and its inputs are fixed. Like a repetition, it is a fresh
// process that faults in fresh memory (64 MiB), then computes: a
// dependent chain of float square roots and random inserts into a hash
// table larger than the cache. Timed beside paper-campaign repetitions on
// a drifting host, a fresh process followed the workload's slowdowns
// better than the same computation in a long-lived one, and deflate,
// sorting and allocation-heavy kernels followed them worse.

import (
	"context"
	"math"
	"os/exec"
	"syscall"
	"time"
)

// refNominalS is the reference's median time on the host the README's
// baseline was taken on, so a scaled time reads in seconds on that host.
const refNominalS = 0.30

// reference runs the reference process once and returns its time.
func reference(ctx context.Context, exe string) (time.Duration, error) {
	cmd := exec.CommandContext(ctx, exe, "-reference")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	return time.Since(start), err
}

// referenceProcess is the reference process's work.
func referenceProcess() float64 {
	mem := make([]byte, 64<<20)
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	return refKernel(make([]uint64, 1<<20)) + float64(mem[4096])
}

// refKernel is a fixed amount of computation over table.
func refKernel(table []uint64) float64 {
	v := 0.5
	for i := 0; i < 16_000_000; i++ {
		v = math.Sqrt(v*v+0.25) * 0.999
	}
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(table) - 1)
	for pass := 0; pass < 2; pass++ {
		clear(table)
		for i := 0; i < 600_000; i++ {
			x ^= x << 13 // xorshift64
			x ^= x >> 7
			x ^= x << 17
			k := x | 1
			j := k & mask
			for table[j] != 0 && table[j] != k {
				j = (j + 1) & mask
			}
			table[j] = k
		}
	}
	return v + float64(table[x&mask]&1)
}
