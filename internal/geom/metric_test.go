package geom

import (
	"math"
	"math/rand"
	"testing"
)

// builtins returns every metric the suite fuzzes: the three named ones plus
// representative general ℓp exponents.
func builtins(t *testing.T) []Metric {
	t.Helper()
	ms := []Metric{L1, L2, LInf}
	for _, p := range []float64{1.5, 2.5, 3, 7} {
		m, err := Lp(p)
		if err != nil {
			t.Fatalf("Lp(%g): %v", p, err)
		}
		ms = append(ms, m)
	}
	return ms
}

func randPt(rng *rand.Rand) Point {
	return Pt((rng.Float64()-0.5)*200, (rng.Float64()-0.5)*200)
}

// The metric axioms — identity, symmetry, triangle inequality — plus
// translation invariance and homogeneity (the norm properties the simulator
// relies on for straight-line geodesics), fuzzed for every built-in.
func TestMetricAxiomsFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range builtins(t) {
		for i := 0; i < 2000; i++ {
			a, b, c := randPt(rng), randPt(rng), randPt(rng)
			dab, dba := m.Dist(a, b), m.Dist(b, a)
			if dab != dba {
				t.Fatalf("%s: asymmetric: d(%v,%v)=%v, d(%v,%v)=%v", m.Name(), a, b, dab, b, a, dba)
			}
			if d := m.Dist(a, a); d != 0 {
				t.Fatalf("%s: d(a,a) = %v, want 0", m.Name(), d)
			}
			if dab < 0 {
				t.Fatalf("%s: negative distance %v", m.Name(), dab)
			}
			if dab == 0 && !a.Eq(b) {
				t.Fatalf("%s: d=0 for distinct points %v %v", m.Name(), a, b)
			}
			// Triangle inequality with a relative float tolerance.
			dac, dcb := m.Dist(a, c), m.Dist(c, b)
			if dab > dac+dcb+1e-9*(1+dab) {
				t.Fatalf("%s: triangle violated: d(a,b)=%v > %v+%v", m.Name(), dab, dac, dcb)
			}
			// Translation invariance and homogeneity.
			shift := randPt(rng)
			if ds := m.Dist(a.Add(shift), b.Add(shift)); math.Abs(ds-dab) > 1e-9*(1+dab) {
				t.Fatalf("%s: not translation invariant: %v vs %v", m.Name(), ds, dab)
			}
			k := rng.Float64() * 3
			if nk := m.Norm(a.Scale(k)); math.Abs(nk-k*m.Norm(a)) > 1e-9*(1+nk) {
				t.Fatalf("%s: not homogeneous: ‖%g·a‖=%v, %g·‖a‖=%v", m.Name(), k, nk, k, k*m.Norm(a))
			}
		}
	}
}

// Every supported metric must dominate Chebyshev (the spatial.Grid
// invariant) and the ℓp family must be monotone in p: d₁ ≥ d_p ≥ d_∞.
func TestMetricDominatesChebyshev(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range builtins(t) {
		for i := 0; i < 2000; i++ {
			a, b := randPt(rng), randPt(rng)
			dinf := LInf.Dist(a, b)
			d := m.Dist(a, b)
			if d < dinf-1e-9*(1+dinf) {
				t.Fatalf("%s: %v below Chebyshev %v for %v %v", m.Name(), d, dinf, a, b)
			}
			if d1 := L1.Dist(a, b); d > d1+1e-9*(1+d1) {
				t.Fatalf("%s: %v above ℓ1 %v for %v %v", m.Name(), d, d1, a, b)
			}
		}
	}
}

// Norm must agree with Dist from the origin, and the known closed forms must
// hold on an exact example.
func TestMetricKnownValues(t *testing.T) {
	a, b := Pt(1, 1), Pt(4, 5)
	if d := L1.Dist(a, b); math.Abs(d-7) > 1e-12 {
		t.Errorf("ℓ1 = %v, want 7", d)
	}
	if d := L2.Dist(a, b); math.Abs(d-5) > 1e-12 {
		t.Errorf("ℓ2 = %v, want 5", d)
	}
	if d := LInf.Dist(a, b); math.Abs(d-4) > 1e-12 {
		t.Errorf("ℓ∞ = %v, want 4", d)
	}
	m, _ := Lp(3)
	want := math.Cbrt(27 + 64)
	if d := m.Dist(a, b); math.Abs(d-want) > 1e-12 {
		t.Errorf("ℓ3 = %v, want %v", d, want)
	}
	rng := rand.New(rand.NewSource(3))
	for _, mm := range builtins(t) {
		for i := 0; i < 200; i++ {
			v := randPt(rng)
			if got, want := mm.Norm(v), mm.Dist(Origin, v); got != want {
				t.Fatalf("%s: Norm(%v)=%v != Dist(0,v)=%v", mm.Name(), v, got, want)
			}
		}
	}
}

// InscribedSquare must actually inscribe: all four corners of the axis
// square of that side centered at the origin lie in the closed unit ball,
// and a slightly larger square must poke out.
func TestMetricInscribedSquare(t *testing.T) {
	for _, m := range builtins(t) {
		s := m.InscribedSquare()
		corner := Pt(s/2, s/2)
		if n := m.Norm(corner); n > 1+1e-9 {
			t.Errorf("%s: inscribed-square corner norm %v > 1", m.Name(), n)
		}
		big := Pt(s/2*1.01, s/2*1.01)
		if n := m.Norm(big); n <= 1 {
			t.Errorf("%s: inscribed square not maximal (1.01× corner norm %v ≤ 1)", m.Name(), n)
		}
	}
}

// Stretch must bound Dist/DistL2 over random pairs, tightly for the known
// extremes.
func TestMetricStretchBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range builtins(t) {
		st := m.Stretch()
		worst := 0.0
		for i := 0; i < 5000; i++ {
			a, b := randPt(rng), randPt(rng)
			d2 := L2.Dist(a, b)
			if d2 < 1e-9 {
				continue
			}
			if r := m.Dist(a, b) / d2; r > worst {
				worst = r
			}
		}
		if worst > st+1e-9 {
			t.Errorf("%s: observed stretch %v exceeds declared %v", m.Name(), worst, st)
		}
		// The diagonal realizes the ℓ1 stretch exactly.
		if m.Name() == "l1" {
			if r := m.Dist(Origin, Pt(1, 1)) / L2.Dist(Origin, Pt(1, 1)); math.Abs(r-st) > 1e-12 {
				t.Errorf("ℓ1 diagonal stretch %v != declared %v", r, st)
			}
		}
	}
}

// lpNormGeneric is the two-Pow formulation of the ℓp norm that request
// hashes and race winners were pinned under, kept verbatim as the reference
// Norm must match bit for bit: same factoring, same 1/p division per call.
func lpNormGeneric(p float64, v Point) float64 {
	ax, ay := math.Abs(v.X), math.Abs(v.Y)
	hi := math.Max(ax, ay)
	if hi == 0 {
		return 0
	}
	lo := math.Min(ax, ay)
	return hi * math.Pow(1+math.Pow(lo/hi, p), 1/p)
}

// Norm, with its precomputed 1/p, must be bit-identical to the generic Pow
// formulation — this is what keeps ℓ*, request hashes, and race winners
// unchanged. Fuzzed over integer and fractional exponents, ordinary
// coordinates, and extreme magnitudes that push the inner power through the
// subnormal range.
func TestLpNormMatchesPowFormulation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	exps := []float64{3, 4, 5, 7, 11, 64, 1.5, 2.5, 6.5}
	scales := []float64{1, 1e-150, 1e-300, 1e150, 1e307}
	for _, p := range exps {
		m, err := Lp(p)
		if err != nil {
			t.Fatalf("Lp(%g): %v", p, err)
		}
		for i := 0; i < 5000; i++ {
			v := randPt(rng).Scale(scales[i%len(scales)])
			if i%17 == 0 {
				v.Y = 0 // axis-aligned: inner power is exactly zero
			}
			if i%23 == 0 {
				v.Y = v.X * 1e-200 // extreme ratio: inner power underflows
			}
			got, want := m.Norm(v), lpNormGeneric(p, v)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("lp:%g Norm(%v) = %x, generic Pow formulation = %x", p, v, got, want)
			}
		}
	}
}

func TestParseMetric(t *testing.T) {
	good := map[string]string{
		"":          "l2",
		"l2":        "l2",
		"L2":        "l2",
		"euclidean": "l2",
		"l1":        "l1",
		"manhattan": "l1",
		"linf":      "linf",
		"chebyshev": "linf",
		"lp:1":      "l1",
		"lp:2":      "l2",
		"lp:+Inf":   "linf",
		"lp:2.5":    "lp:2.5",
		" lp:3 ":    "lp:3",
	}
	for in, want := range good {
		m, err := ParseMetric(in)
		if err != nil {
			t.Errorf("ParseMetric(%q): %v", in, err)
			continue
		}
		if m.Name() != want {
			t.Errorf("ParseMetric(%q).Name() = %q, want %q", in, m.Name(), want)
		}
	}
	bad := []string{"l3", "lp:", "lp:0", "lp:0.5", "lp:NaN", "lp:-2", "lp:x", "manhatten", "l∞"}
	for _, in := range bad {
		if m, err := ParseMetric(in); err == nil {
			t.Errorf("ParseMetric(%q) accepted as %q, want error", in, m.Name())
		}
	}
	// Lp must reject degenerate exponents directly too.
	for _, p := range []float64{math.NaN(), 0, 0.99, -1} {
		if _, err := Lp(p); err == nil {
			t.Errorf("Lp(%v) accepted, want error", p)
		}
	}
}

// MoveToward must advance exactly the requested metric distance along the
// segment (norm homogeneity), clamp at the endpoints, and agree with Lerp
// under ℓ2.
func TestMoveToward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range builtins(t) {
		for i := 0; i < 1000; i++ {
			a, b := randPt(rng), randPt(rng)
			total := m.Dist(a, b)
			if total < 1e-6 {
				continue
			}
			d := rng.Float64() * total
			p := MoveToward(m, a, b, d)
			got := m.Dist(a, p)
			if math.Abs(got-d) > 1e-9*(1+total) {
				t.Fatalf("%s: MoveToward travelled %v, want %v", m.Name(), got, d)
			}
			// Remaining distance must close the segment: p is on it.
			if rest := m.Dist(p, b); math.Abs(got+rest-total) > 1e-9*(1+total) {
				t.Fatalf("%s: MoveToward left the segment: %v+%v != %v", m.Name(), got, rest, total)
			}
		}
		a, b := Pt(0, 0), Pt(3, 4)
		if p := MoveToward(m, a, b, -1); p != a {
			t.Errorf("%s: negative distance moved to %v", m.Name(), p)
		}
		if p := MoveToward(m, a, b, 1e18); p != b {
			t.Errorf("%s: overshoot not clamped: %v", m.Name(), p)
		}
	}
}

func TestMetricHelpers(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(4, 1)}
	if got := PathLengthIn(L1, pts); math.Abs(got-5) > 1e-12 {
		t.Errorf("PathLengthIn ℓ1 = %v, want 5", got)
	}
	if got := MaxDistFromIn(LInf, Origin, pts); got != 4 {
		t.Errorf("MaxDistFromIn ℓ∞ = %v, want 4", got)
	}
	if !IsL2(nil) || !IsL2(L2) || IsL2(L1) {
		t.Error("IsL2 misclassifies")
	}
	if MetricOrL2(nil) != L2 {
		t.Error("MetricOrL2(nil) != L2")
	}
}
