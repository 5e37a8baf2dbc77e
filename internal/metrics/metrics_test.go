package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitLinearExact(t *testing.T) {
	// y = 3a + 2b exactly.
	var feats [][]float64
	var ys []float64
	for a := 1.0; a <= 5; a++ {
		for b := 1.0; b <= 3; b++ {
			feats = append(feats, []float64{a, b})
			ys = append(ys, 3*a+2*b)
		}
	}
	coef, r2, err := FitLinear(feats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-3) > 1e-9 || math.Abs(coef[1]-2) > 1e-9 {
		t.Errorf("coef = %v, want [3 2]", coef)
	}
	if r2 < 0.999999 {
		t.Errorf("R² = %v", r2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var feats [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Float64() * 10
		feats = append(feats, []float64{x, 1})
		ys = append(ys, 5*x+7+rng.NormFloat64()*0.1)
	}
	coef, r2, err := FitLinear(feats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-5) > 0.05 || math.Abs(coef[1]-7) > 0.2 {
		t.Errorf("coef = %v, want ≈ [5 7]", coef)
	}
	if r2 < 0.99 {
		t.Errorf("R² = %v", r2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, _, err := FitLinear(nil, nil); err == nil {
		t.Error("empty input should error")
	}
	if _, _, err := FitLinear([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system should error")
	}
	// Collinear columns.
	feats := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, _, err := FitLinear(feats, []float64{1, 2, 3}); err == nil {
		t.Error("singular system should error")
	}
}

func TestGrowthExponent(t *testing.T) {
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 3*x*x) // exponent 2
	}
	if a := GrowthExponent(xs, ys); math.Abs(a-2) > 1e-9 {
		t.Errorf("exponent = %v, want 2", a)
	}
	// Linear data.
	ys = ys[:0]
	for _, x := range xs {
		ys = append(ys, 7*x)
	}
	if a := GrowthExponent(xs, ys); math.Abs(a-1) > 1e-9 {
		t.Errorf("exponent = %v, want 1", a)
	}
	if a := GrowthExponent([]float64{1}, []float64{1}); !math.IsNaN(a) {
		t.Errorf("single point exponent = %v, want NaN", a)
	}
	// Non-positive data skipped.
	if a := GrowthExponent([]float64{-1, 1, 2}, []float64{5, 3, 6}); math.IsNaN(a) {
		t.Error("should fit on the positive subset")
	}
}

func TestMeanMaxRatio(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty aggregates should be 0")
	}
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if m := Max([]float64{3, 1, 2}); m != 3 {
		t.Errorf("Max = %v", m)
	}
}
