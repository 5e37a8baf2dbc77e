package geom

import (
	"math"
	"math/rand"
	"testing"
)

// gridScanInstances generates the point-set shapes the grid scans must
// handle: uniform spreads, tight clusters with outliers, near-collinear
// sets, and duplicates.
func gridScanInstances(rng *rand.Rand) [][]Point {
	uniform := make([]Point, 300)
	for i := range uniform {
		uniform[i] = Pt(rng.Float64()*100-50, rng.Float64()*100-50)
	}
	clustered := make([]Point, 0, 300)
	for c := 0; c < 5; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 58; i++ {
			clustered = append(clustered, Pt(cx+rng.Float64(), cy+rng.Float64()))
		}
	}
	clustered = append(clustered, Pt(-5000, 7000), Pt(9000, -3000)) // far outliers
	line := make([]Point, 200)
	for i := range line {
		line[i] = Pt(float64(i)*3.7, rng.Float64()*0.01)
	}
	dup := make([]Point, 100)
	for i := range dup {
		dup[i] = Pt(float64(i%7), float64(i%5))
	}
	small := []Point{Pt(0, 0), Pt(1, 2), Pt(-3, 1)}
	return [][]Point{uniform, clustered, line, dup, small, nil}
}

// The grid-accelerated scans must return exactly — bit for bit — what the
// dense scans return, under every metric family the suite covers.
func TestGridScansMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range builtins(t) {
		for trial, pts := range gridScanInstances(rng) {
			o := Pt(rng.Float64()*10-5, rng.Float64()*10-5)
			if got, want := MaxDistFromGridIn(m, o, pts), MaxDistFromIn(m, o, pts); got != want {
				t.Errorf("%s instance %d: MaxDistFromGridIn = %x, dense = %x", m.Name(), trial, got, want)
			}
		}
	}
}

// Fuzz small random sets across scales so the corner-bound pruning sees
// many cell geometries.
func TestGridScansFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, m := range builtins(t) {
		for i := 0; i < 150; i++ {
			n := gridScanMinN + rng.Intn(120)
			scale := math.Pow(10, float64(rng.Intn(7)-3))
			pts := make([]Point, n)
			for j := range pts {
				pts[j] = Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)
			}
			if rng.Intn(3) == 0 {
				pts[n-1] = pts[rng.Intn(n-1)] // exact duplicate
			}
			o := randPt(rng)
			if got, want := MaxDistFromGridIn(m, o, pts), MaxDistFromIn(m, o, pts); got != want {
				t.Fatalf("%s n=%d scale=%g: MaxDistFromGridIn = %x, dense = %x", m.Name(), n, scale, got, want)
			}
		}
	}
}

func TestGridScansDegenerate(t *testing.T) {
	same := make([]Point, 100)
	for i := range same {
		same[i] = Pt(3, 4)
	}
	if got := MaxDistFromGridIn(nil, Origin, same); got != 5 {
		t.Errorf("coincident MaxDistFromGridIn = %v, want 5", got)
	}
	if got := MaxDistFromGridIn(nil, Origin, nil); got != 0 {
		t.Errorf("empty MaxDistFromGridIn = %v, want 0", got)
	}
	nan := make([]Point, 100)
	for i := range nan {
		nan[i] = Pt(float64(i), 0)
	}
	nan[50] = Pt(math.NaN(), 1)
	if got, want := MaxDistFromGridIn(nil, Origin, nan), MaxDistFromIn(nil, Origin, nan); got != want {
		t.Errorf("NaN MaxDistFromGridIn = %v, dense = %v", got, want)
	}
}
