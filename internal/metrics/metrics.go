// Package metrics provides the small statistics toolkit the benchmark
// harness uses to compare measured makespans and energies against the
// paper's complexity models: least-squares fits against model terms,
// goodness-of-fit, and log-log growth exponents.
package metrics

import (
	"errors"
	"math"
)

// FitLinear computes the least-squares coefficients x minimizing ‖F·x − y‖²
// where F's rows are feature vectors (model terms evaluated at each data
// point). It returns the coefficients and the R² of the fit. The system is
// solved by normal equations with Gaussian elimination and partial pivoting,
// adequate for the handful of terms the harness fits.
func FitLinear(features [][]float64, y []float64) ([]float64, float64, error) {
	n := len(features)
	if n == 0 || n != len(y) {
		return nil, 0, errors.New("metrics: feature/target size mismatch")
	}
	k := len(features[0])
	for _, row := range features {
		if len(row) != k {
			return nil, 0, errors.New("metrics: ragged feature matrix")
		}
	}
	if n < k {
		return nil, 0, errors.New("metrics: underdetermined system")
	}
	// Normal equations: (FᵀF) x = Fᵀ y.
	ftf := make([][]float64, k)
	fty := make([]float64, k)
	for i := 0; i < k; i++ {
		ftf[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			var s float64
			for r := 0; r < n; r++ {
				s += features[r][i] * features[r][j]
			}
			ftf[i][j] = s
		}
		var s float64
		for r := 0; r < n; r++ {
			s += features[r][i] * y[r]
		}
		fty[i] = s
	}
	coef, err := solve(ftf, fty)
	if err != nil {
		return nil, 0, err
	}
	return coef, rSquared(features, y, coef), nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a | b).
func solve(a [][]float64, b []float64) ([]float64, error) {
	k := len(a)
	m := make([][]float64, k)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, errors.New("metrics: singular system (collinear model terms)")
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < k; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, k)
	for i := 0; i < k; i++ {
		x[i] = m[i][k] / m[i][i]
	}
	return x, nil
}

func rSquared(features [][]float64, y []float64, coef []float64) float64 {
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for r := range y {
		var pred float64
		for c, x := range coef {
			pred += features[r][c] * x
		}
		d := y[r] - pred
		ssRes += d * d
		t := y[r] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// GrowthExponent estimates the exponent α in y ≈ c·x^α by least-squares on
// log-log data; pairs with non-positive coordinates are skipped. It returns
// NaN when fewer than two usable pairs remain.
func GrowthExponent(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	for i := range lx {
		sx += lx[i]
		sy += ly[i]
		sxx += lx[i] * lx[i]
		sxy += lx[i] * ly[i]
	}
	n := float64(len(lx))
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		return math.NaN()
	}
	return (n*sxy - sx*sy) / den
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	var m float64
	for i, v := range xs {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}
