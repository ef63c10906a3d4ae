package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRanksSimple(t *testing.T) {
	got := Ranks([]float64{30, 10, 20})
	want := []float64{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestRanksTiesFractional(t *testing.T) {
	// Two values tied for ranks 1 and 2 both get 1.5.
	got := Ranks([]float64{5, 5, 1})
	if got[0] != 1.5 || got[1] != 1.5 || got[2] != 3 {
		t.Fatalf("Ranks with ties = %v", got)
	}
	// All equal: everyone gets the middle rank.
	got = Ranks([]float64{7, 7, 7, 7})
	for _, r := range got {
		if r != 2.5 {
			t.Fatalf("all-tied ranks = %v", got)
		}
	}
}

func TestRanksEmpty(t *testing.T) {
	if got := Ranks(nil); len(got) != 0 {
		t.Fatalf("Ranks(nil) = %v", got)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	if rho := SpearmanRho(xs, ys); !almostEq(rho, 1) {
		t.Fatalf("perfect correlation rho = %v", rho)
	}
	// Reversed: perfectly anti-correlated.
	rev := []float64{50, 40, 30, 20, 10}
	if rho := SpearmanRho(xs, rev); !almostEq(rho, -1) {
		t.Fatalf("reversed rho = %v", rho)
	}
}

func TestSpearmanMonotoneTransformInvariant(t *testing.T) {
	xs := []float64{1, 5, 3, 9, 7}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone transform preserves ranks
	}
	if rho := SpearmanRho(xs, ys); !almostEq(rho, 1) {
		t.Fatalf("monotone transform rho = %v, want 1", rho)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if rho := SpearmanRho([]float64{1}, []float64{2}); rho != 0 {
		t.Fatalf("single-point rho = %v", rho)
	}
	if rho := SpearmanRho([]float64{1, 2}, []float64{5}); rho != 0 {
		t.Fatalf("length-mismatch rho = %v", rho)
	}
	// Zero variance on one side.
	if rho := SpearmanRho([]float64{1, 2, 3}, []float64{7, 7, 7}); rho != 0 {
		t.Fatalf("constant-side rho = %v", rho)
	}
}

func TestSpearmanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20) + 2
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = rng.Float64() * 100
		}
		rho := SpearmanRho(xs, ys)
		if rho < -1-1e-9 || rho > 1+1e-9 {
			t.Fatalf("rho = %v out of [-1,1]", rho)
		}
	}
}

func TestErrMetrics(t *testing.T) {
	xs := []float64{10, 20, 30}
	ys := []float64{12, 18, 30}
	if got := MaxAbsErr(xs, ys); got != 2 {
		t.Fatalf("MaxAbsErr = %v", got)
	}
	if got := MeanAbsErr(xs, ys); !almostEq(got, 4.0/3) {
		t.Fatalf("MeanAbsErr = %v", got)
	}
	if MaxAbsErr(nil, nil) != 0 || MeanAbsErr(nil, nil) != 0 {
		t.Fatal("empty error metrics not zero")
	}
}

// Property: MaxAbsErr >= MeanAbsErr always.
func TestErrMetricsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		xs, ys := raw[:half], raw[half:2*half]
		for _, v := range append(xs, ys...) {
			// Skip values whose differences or sums could overflow; the
			// metrics operate on percentages in practice.
			if math.IsNaN(v) || math.Abs(v) > 1e300 {
				return true
			}
		}
		return MaxAbsErr(xs, ys) >= MeanAbsErr(xs, ys)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation-with-ties of 1..n (sum preserved).
func TestRanksSumProperty(t *testing.T) {
	f := func(raw []float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) {
				return true
			}
		}
		ranks := Ranks(raw)
		n := float64(len(raw))
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		return math.Abs(sum-n*(n+1)/2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
