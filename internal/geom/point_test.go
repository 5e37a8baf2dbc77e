package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArith(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); math.Abs(d-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(0, 0).Dist2(Pt(3, 4)); math.Abs(d-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", d)
	}
	if d := Pt(1, 1).DistL1(Pt(-2, 3)); math.Abs(d-5) > 1e-12 {
		t.Errorf("DistL1 = %v, want 5", d)
	}
}

func TestEqAndWithin(t *testing.T) {
	p := Pt(1, 1)
	if !p.Eq(Pt(1+1e-10, 1-1e-10)) {
		t.Error("Eq should tolerate sub-Eps noise")
	}
	if p.Eq(Pt(1.001, 1)) {
		t.Error("Eq should reject 1e-3 offsets")
	}
	if !p.Within(Pt(2, 1), 1) {
		t.Error("Within(d=1) should accept exact distance 1")
	}
	if p.Within(Pt(2.1, 1), 1) {
		t.Error("Within(d=1) should reject distance 1.1")
	}
}

func TestLerpMidpoint(t *testing.T) {
	p, q := Pt(0, 0), Pt(2, 4)
	if got := p.Lerp(q, 0.25); !got.Eq(Pt(0.5, 1)) {
		t.Errorf("Lerp = %v", got)
	}
	if got := p.Midpoint(q); !got.Eq(Pt(1, 2)) {
		t.Errorf("Midpoint = %v", got)
	}
}

func TestPathLength(t *testing.T) {
	if l := PathLengthIn(nil, nil); l != 0 {
		t.Errorf("empty path length = %v", l)
	}
	if l := PathLengthIn(nil, []Point{Pt(0, 0)}); l != 0 {
		t.Errorf("single point path length = %v", l)
	}
	path := []Point{Pt(0, 0), Pt(3, 4), Pt(3, 0)}
	if l := PathLengthIn(nil, path); math.Abs(l-9) > 1e-12 {
		t.Errorf("path length = %v, want 9", l)
	}
}

func TestMaxDistFrom(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if r := MaxDistFromIn(nil, Pt(0, 0), pts); math.Abs(r-2*math.Sqrt2) > 1e-12 {
		t.Errorf("MaxDistFromIn = %v", r)
	}
	if r := MaxDistFromIn(nil, Pt(0, 0), nil); r != 0 {
		t.Errorf("MaxDistFromIn(empty) = %v", r)
	}
}

// Property: the triangle inequality holds for Dist.
func TestDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := clampPt(ax, ay), clampPt(bx, by), clampPt(cx, cy)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Dist is symmetric and zero iff points equal (for clean inputs).
func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := clampPt(ax, ay), clampPt(bx, by)
		return math.Abs(a.Dist(b)-b.Dist(a)) < 1e-12
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Dist2 = Dist².
func TestDist2Consistency(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := clampPt(ax, ay), clampPt(bx, by)
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: L1 distance dominates L2 distance and is at most √2 times it.
func TestL1L2Relation(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := clampPt(ax, ay), clampPt(bx, by)
		l1, l2 := a.DistL1(b), a.Dist(b)
		return l1 >= l2-1e-9 && l1 <= math.Sqrt2*l2+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// clampPt maps arbitrary quick-generated floats into a sane bounded range so
// properties are not defeated by NaN/Inf/overflow artifacts.
func clampPt(x, y float64) Point {
	c := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	return Pt(c(x), c(y))
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}
}
