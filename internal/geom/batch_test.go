package geom

import (
	"math"
	"math/rand"
	"testing"
)

// batchMetrics is the metric family battery every DistBatch property runs
// under: the three canonical metrics plus fractional and integer ℓp
// exponents (the integer ones exercise Norm's multiply-and-Log/Exp fast
// path, the fractional one its Pow path).
func batchMetrics(t *testing.T) []Metric {
	t.Helper()
	ms := []Metric{L1, L2, LInf}
	for _, p := range []float64{2.5, 3, 4, 5, 7, 64} {
		m, err := Lp(p)
		if err != nil {
			t.Fatalf("Lp(%g): %v", p, err)
		}
		ms = append(ms, m)
	}
	return ms
}

// assertBatchEq checks DistBatch against the per-call Dist loop bit for bit.
func assertBatchEq(t *testing.T, m Metric, p Point, pts []Point, out []float64) {
	t.Helper()
	DistBatch(m, p, pts, out)
	for i, q := range pts {
		want := m.Dist(p, q)
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("%s: DistBatch[%d] = %v (bits %x), Dist = %v (bits %x) for p=%v q=%v",
				m.Name(), i, out[i], math.Float64bits(out[i]), want, math.Float64bits(want), p, q)
		}
	}
}

// TestDistBatchMatchesDist fuzzes every metric family across coordinate
// scales from subnormal-adjacent to near-overflow: batch results must be
// bit-identical to the scalar loop at any magnitude.
func TestDistBatchMatchesDist(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	out := make([]float64, 256)
	for _, m := range batchMetrics(t) {
		for round := 0; round < 40; round++ {
			scale := math.Exp2(float64(rng.Intn(600) - 300))
			n := rng.Intn(len(out))
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)
			}
			origin := Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)
			assertBatchEq(t, m, origin, pts, out)
		}
	}
}

// TestDistBatchEdgeCases pins degenerate inputs: empty and length-1
// blocks, coincident points, zero/one-axis differences, NaN and ±Inf
// coordinates, and small ℓp component ratios.
func TestDistBatchEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	blocks := [][]Point{
		nil,
		{},
		{Pt(1, 2)},
		{Pt(0, 0), Pt(0, 0), Pt(3, 4)},
		{Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(0, -1), Pt(5, 0), Pt(0, 5), Pt(2, 2)},
		{Pt(inf, 0), Pt(-inf, 3), Pt(nan, 1), Pt(2, nan), Pt(inf, inf), Pt(nan, nan), Pt(1, 1)},
		{Pt(1e-320, 0), Pt(0, 1e-320), Pt(1e-320, 1e308), Pt(1e308, 1e308)},
		// Component ratios lo/hi at and under 2⁻⁷.
		{Pt(1, 0x1p-9), Pt(0x1p-9, 1), Pt(1, 0x1p-7), Pt(1, math.Nextafter(0x1p-7, 0))},
		// 1+tp == 1: tiny ratios where the power underflows the addition.
		{Pt(1, 1e-18), Pt(1e-18, 1)},
	}
	out := make([]float64, 16)
	for _, m := range batchMetrics(t) {
		for _, pts := range blocks {
			for _, origin := range []Point{Pt(0, 0), Pt(-3, 7), Pt(inf, 0), Pt(nan, nan)} {
				assertBatchEq(t, m, origin, pts, out)
			}
		}
	}
}

// TestDistBatchOutReuse reuses one out buffer across calls of shrinking
// length — stale tail values from earlier, longer calls must never leak
// into a later result, and the tail beyond len(pts) must stay untouched.
func TestDistBatchOutReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	out := make([]float64, 64)
	for i := range out {
		out[i] = -1
	}
	for _, m := range batchMetrics(t) {
		for _, n := range []int{64, 63, 31, 7, 1, 0} {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Pt(rng.Float64()*10-5, rng.Float64()*10-5)
			}
			sentinel := math.Inf(-1)
			for i := n; i < len(out); i++ {
				out[i] = sentinel
			}
			assertBatchEq(t, m, Pt(1, -2), pts, out)
			for i := n; i < len(out); i++ {
				if out[i] != sentinel {
					t.Fatalf("%s: DistBatch wrote out[%d] beyond len(pts)=%d", m.Name(), i, n)
				}
			}
		}
	}
}

// TestDistBatchShortOut verifies the documented contract that an undersized
// out panics (a silent truncation would corrupt the caller's results).
func TestDistBatchShortOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DistBatch with len(out) < len(pts) did not panic")
		}
	}()
	DistBatch(L2, Origin, make([]Point, 4), make([]float64, 3))
}

// TestDistBatchUnknownMetric runs a Metric implementation outside the
// built-in families through DistBatch.
func TestDistBatchUnknownMetric(t *testing.T) {
	m := weirdMetric{}
	pts := []Point{Pt(1, 1), Pt(-2, 3), Pt(0, 0)}
	out := make([]float64, len(pts))
	DistBatch(m, Pt(1, 0), pts, out)
	for i, q := range pts {
		if want := m.Dist(Pt(1, 0), q); out[i] != want {
			t.Fatalf("unknown metric: out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

// weirdMetric is a Chebyshev-dominating metric outside the built-in families.
type weirdMetric struct{}

func (weirdMetric) Name() string             { return "weird" }
func (weirdMetric) Dist(p, q Point) float64  { return 2 * LInf.Dist(p, q) }
func (weirdMetric) Norm(v Point) float64     { return 2 * LInf.Norm(v) }
func (weirdMetric) InscribedSquare() float64 { return 1 }
func (weirdMetric) Stretch() float64         { return 2 }

// FuzzDistBatch is the go-fuzz entry: arbitrary coordinate bit patterns
// through every metric family must match the scalar loop bit for bit.
func FuzzDistBatch(f *testing.F) {
	f.Add(1.5, -2.25, 3.0, 4.0, 0.125, 1e300)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(math.Inf(1), 1.0, math.NaN(), -1e-308, 2.0, 0x1p-7)
	metrics := []Metric{L1, L2, LInf}
	for _, p := range []float64{2.5, 3, 4} {
		m, _ := Lp(p)
		metrics = append(metrics, m)
	}
	f.Fuzz(func(t *testing.T, ox, oy, x1, y1, x2, y2 float64) {
		origin := Pt(ox, oy)
		pts := []Point{Pt(x1, y1), Pt(x2, y2), Pt(x1, y2), Pt(x2, y1)}
		out := make([]float64, len(pts))
		for _, m := range metrics {
			DistBatch(m, origin, pts, out)
			for i, q := range pts {
				want := m.Dist(origin, q)
				if math.Float64bits(out[i]) != math.Float64bits(want) {
					t.Fatalf("%s: DistBatch[%d] bits %x != Dist bits %x (origin=%v q=%v)",
						m.Name(), i, math.Float64bits(out[i]), math.Float64bits(want), origin, q)
				}
			}
		}
	})
}
