package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// rtSnap is one reading of the Go runtime's counters.
type rtSnap struct {
	allocObjs  uint64
	allocBytes uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, the runtime's estimate
	sched      []uint64
	schedEdges []float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return rtSnap{
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		sched:      append([]uint64(nil), h.Counts...),
		schedEdges: h.Buckets,
	}
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func goroutines() uint64 {
	s := []metrics.Sample{{Name: "/sched/goroutines:goroutines"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// schedP99 is the 99th percentile of the goroutine scheduling latencies
// recorded between a and b, in seconds (the upper edge of its bucket).
func schedP99(a, b rtSnap) float64 {
	var total uint64
	d := make([]uint64, len(b.sched))
	for i := range d {
		d[i] = b.sched[i] - a.sched[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(0.99*float64(total) + 0.5)
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= rank {
			return b.schedEdges[i+1]
		}
	}
	return b.schedEdges[len(b.schedEdges)-1]
}
