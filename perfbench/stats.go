package main

import (
	"math"
	"sort"
	"time"
)

// Latency series hold microseconds; a failed or refused operation is +Inf,
// so it counts as missing every latency limit.

// percentile is the nearest-rank p-th percentile of sorted (0 < p <= 100).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps p*n/100 that is integral in exact arithmetic from
	// rounding up a rank (99.9% of 10000 is 9990, not 9990.000000000002).
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// beyond counts the samples strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// tailPercentiles are the candidates for a series' reported tail, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest candidate percentile of sorted that still has at
// least ten samples beyond it, with its value and that sample count. A
// series too short for any candidate reports its median.
func tail(sorted []float64) (p, v float64, n int) {
	for _, p := range tailPercentiles {
		v := percentile(sorted, p)
		if n := beyond(sorted, v); n >= 10 {
			return p, v, n
		}
	}
	v = percentile(sorted, 50)
	return 50, v, beyond(sorted, v)
}

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func median(s []float64) float64 { return percentile(sortedCopy(s), 50) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finite maps the +Inf a percentile over failed ops can read to a number
// JSON can carry; it still misses every latency limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

// sliceLen is the length of one slice of an open loop and peakSliceLen that
// of the closed loop; a run interleaves the three loads slice by slice. The
// closed loop gets the longer slice because its p99 is the noisiest figure:
// at saturation a GC cycle (one every second or two) doubles the queueing,
// and a 2 s slice nearly always holds one.
const (
	sliceLen     = time.Second
	peakSliceLen = 2 * time.Second
)

// Each end-to-end figure is computed per window of a slice, and the run
// reports the median over all windows: a disturbance of the shared machine
// (a descheduled vCPU, a neighbour's I/O) that hits fewer than half of the
// windows does not move it, while a change to the program that slows most
// windows does. An open-loop window is the shortest of minWindow,
// 2*minWindow, ..., sliceLen expected to hold enough samples for the
// percentile; a closed-loop p99 uses whole slices.
const minWindow = 250 * time.Millisecond

// windowFor picks the window for a series with perSlice samples per slice
// that needs at least need samples per window.
func windowFor(perSlice, need int) time.Duration {
	w := minWindow
	for w < sliceLen && perSlice*int(w/minWindow) < need*int(sliceLen/minWindow) {
		w *= 2
	}
	return min(w, sliceLen)
}

// values returns the samples' latencies, sorted.
func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.us
	}
	sort.Float64s(out)
	return out
}

// windowed cuts every slice into windows of length w (by due or send time)
// and returns each window's p-th percentile, sorted.
func windowed(slices [][]sample, w time.Duration, p float64) []float64 {
	var per []float64
	for _, s := range slices {
		groups := map[time.Duration][]float64{}
		for _, x := range s {
			groups[x.at/w] = append(groups[x.at/w], x.us)
		}
		for _, g := range groups {
			sort.Float64s(g)
			per = append(per, percentile(g, p))
		}
	}
	sort.Float64s(per)
	return per
}

// windowedRate is the median over every minWindow window of every slice of
// the successful operations completed per second.
func windowedRate(slices [][]sample) float64 {
	var per []float64
	for _, s := range slices {
		counts := make([]float64, peakSliceLen/minWindow)
		for _, x := range s {
			if math.IsInf(x.us, 1) {
				continue
			}
			if w := int((x.at + time.Duration(x.us*1e3)) / minWindow); w < len(counts) {
				counts[w]++
			}
		}
		per = append(per, counts...)
	}
	return median(per) / minWindow.Seconds()
}
