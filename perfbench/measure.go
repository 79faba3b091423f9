package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"adhocbcast/internal/obsv"
)

// usage is a snapshot of the process's CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	peakMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, peakMB: float64(ru.Maxrss) / 1024} // Maxrss is in KiB on Linux
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// histQuantile estimates the q-quantile of a merged obsv histogram by linear
// interpolation inside the bucket holding that rank; the overflow bucket
// spans from the last bound to the observed maximum.
func histQuantile(h obsv.Histogram, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Min, h.Max
		if i > 0 {
			lo = max(lo, h.Bounds[i-1])
		}
		if i < len(h.Bounds) {
			hi = min(hi, h.Bounds[i])
		}
		if seen+float64(c) >= rank {
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Max
}

// repeatSetup runs setup k times and returns the median wall time in seconds
// and the last call's value. A garbage collection before each call keeps one
// set-up's garbage out of the next one's time and out of the peak RSS.
func repeatSetup[T any](k int, setup func() (T, error)) (T, float64, error) {
	var last, zero T
	var secs []float64
	for i := 0; i < k; i++ {
		last = zero
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// closedLoop calls op(i) for i = 0, 1, ... — each only after the previous
// returned — at least minOps times, then while the next call is expected (at
// the mean call time so far) to end within budget. It returns each call's
// wall time; an error from op ends the loop.
func closedLoop(budget time.Duration, minOps int, op func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for i := 0; i < minOps || time.Since(start)+time.Since(start)/time.Duration(max(i, 1)) <= budget; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}
