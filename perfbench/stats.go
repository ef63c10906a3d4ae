package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
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

// inputMedian is the median over inputs of the median of each input's
// samples, where inputs[i] names the input xs[i] was measured on.
func inputMedian(xs []float64, inputs []int) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[inputs[i]] = append(by[inputs[i]], x)
	}
	meds := make([]float64, 0, len(by))
	for _, ys := range by {
		meds = append(meds, median(ys))
	}
	return median(meds)
}

// nearestRank returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of samples at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// iqr returns the distance between the first and third quartiles.
func iqr(xs []float64) float64 {
	return quantile(xs, 0.75) - quantile(xs, 0.25)
}

// timed runs fn and returns its host time in seconds.
func timed(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

// cpuSeconds is the process's user plus system CPU time so far, over all
// threads; 0 where getrusage fails.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the process's resident-set high-water mark at
// its current resident set (Linux; elsewhere a no-op).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MB from /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
