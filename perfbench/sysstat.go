package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// Runtime counters read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSample is one snapshot of the runtime counters the go.* per-layer
// metrics are deltas of.
type rtSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	schedCounts     []uint64
	schedBuckets    []float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLat}}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return rtSample{
		allocBytes:   s[0].Value.Uint64(),
		gcCPU:        s[1].Value.Float64(),
		totalCPU:     s[2].Value.Float64(),
		schedCounts:  append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes     uint64
	gcShare        float64 // GC CPU over all CPU the runtime accounts
	schedWaitP99us float64 // p99 of goroutine run-queue waits
}

func runtimeDelta(a, b rtSample) rtDelta {
	d := rtDelta{allocBytes: b.allocBytes - a.allocBytes}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcShare = (b.gcCPU - a.gcCPU) / tot
	}
	counts := make([]uint64, len(b.schedCounts))
	var n uint64
	for i := range counts {
		counts[i] = b.schedCounts[i] - a.schedCounts[i]
		n += counts[i]
	}
	// The p99 is the upper edge of the bucket holding the 99th
	// percentile wait (the lower edge for the open last bucket).
	need := uint64(math.Ceil(0.99 * float64(n)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if n > 0 && cum >= need {
			edge := b.schedBuckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.schedBuckets[i]
			}
			d.schedWaitP99us = edge * 1e6
			break
		}
	}
	return d
}
