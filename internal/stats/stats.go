// Package stats provides the small statistical helpers the experiment
// harness and tests use to compare a technique's estimates against ground
// truth: rank correlation, top-k overlap, and error summaries.
package stats

import (
	"math"
	"sort"
)

// Ranks converts values to 1-based ranks (highest value gets rank 1);
// ties receive the average of the ranks they span (standard fractional
// ranking, as used by Spearman's rho).
func Ranks(vals []float64) []float64 {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && vals[idx[j+1]] == vals[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// SpearmanRho computes the rank correlation between two paired samples.
// Returns 0 for degenerate inputs (fewer than 2 points or zero variance).
func SpearmanRho(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	rx, ry := Ranks(xs), Ranks(ys)
	return pearson(rx, ry)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MaxAbsErr returns the largest absolute difference between paired values.
func MaxAbsErr(xs, ys []float64) float64 {
	max := 0.0
	for i := range xs {
		if d := math.Abs(xs[i] - ys[i]); d > max {
			max = d
		}
	}
	return max
}

// MeanAbsErr returns the mean absolute difference between paired values.
func MeanAbsErr(xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for i := range xs {
		sum += math.Abs(xs[i] - ys[i])
	}
	return sum / float64(len(xs))
}
