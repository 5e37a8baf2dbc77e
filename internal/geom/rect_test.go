package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(3, 4), Pt(1, 2))
	if r.Min != Pt(1, 2) || r.Max != Pt(3, 4) {
		t.Errorf("NewRect = %v", r)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(Pt(0, 0), 4, 3)
	if r.Width() != 4 || r.Height() != 3 {
		t.Errorf("dims = %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v", r.Area())
	}
	if !r.Center().Eq(Pt(2, 1.5)) {
		t.Errorf("Center = %v", r.Center())
	}
	if math.Abs(r.Diam()-5) > 1e-12 {
		t.Errorf("Diam = %v", r.Diam())
	}
}

func TestRectContains(t *testing.T) {
	r := RectWH(Pt(0, 0), 2, 2)
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(0, 0), true},
		{Pt(2, 2), true},
		{Pt(2+1e-12, 2), true}, // Eps slack
		{Pt(2.1, 1), false},
		{Pt(-0.1, 1), false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectContainsStrict(t *testing.T) {
	r := RectWH(Pt(0, 0), 2, 2)
	if !r.ContainsStrict(Pt(0, 0)) {
		t.Error("strict should include min corner")
	}
	if r.ContainsStrict(Pt(2, 1)) {
		t.Error("strict should exclude max edge")
	}
}

func TestClampDist(t *testing.T) {
	r := RectWH(Pt(0, 0), 2, 2)
	if got := r.Clamp(Pt(5, 1)); !got.Eq(Pt(2, 1)) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Clamp(Pt(1, 1)); !got.Eq(Pt(1, 1)) {
		t.Errorf("Clamp interior = %v", got)
	}
	if d := r.DistTo(Pt(5, 1)); math.Abs(d-3) > 1e-12 {
		t.Errorf("DistTo = %v", d)
	}
	if d := r.DistTo(Pt(1, 1)); d != 0 {
		t.Errorf("DistTo interior = %v", d)
	}
}

func TestCorners(t *testing.T) {
	r := RectWH(Pt(0, 0), 2, 3)
	c := r.Corners()
	want := [4]Point{Pt(0, 0), Pt(2, 0), Pt(2, 3), Pt(0, 3)}
	if c != want {
		t.Errorf("Corners = %v", c)
	}
}

func TestSplitLongestSide(t *testing.T) {
	r := RectWH(Pt(0, 0), 4, 2)
	a, b := r.SplitLongestSide()
	if a.Width() != 2 || b.Width() != 2 || a.Height() != 2 {
		t.Errorf("horizontal split: %v %v", a, b)
	}
	tall := RectWH(Pt(0, 0), 2, 4)
	a, b = tall.SplitLongestSide()
	if a.Height() != 2 || b.Height() != 2 {
		t.Errorf("vertical split: %v %v", a, b)
	}
}

// hstrips collects r's k strips, bottom-up.
func hstrips(r Rect, k int) []Rect {
	strips := make([]Rect, k)
	for i := range strips {
		strips[i] = r.HStrip(i, k)
	}
	return strips
}

func TestHStrips(t *testing.T) {
	r := RectWH(Pt(0, 0), 4, 3)
	strips := hstrips(r, 3)
	if len(strips) != 3 {
		t.Fatalf("len = %d", len(strips))
	}
	for i, s := range strips {
		if math.Abs(s.Height()-1) > 1e-12 {
			t.Errorf("strip %d height = %v", i, s.Height())
		}
	}
	if strips[2].Max.Y != 3 {
		t.Errorf("top strip must reach r.Max.Y, got %v", strips[2].Max.Y)
	}
}

func TestHStripsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HStrip(0, 0) should panic")
		}
	}()
	RectWH(Pt(0, 0), 1, 1).HStrip(0, 0)
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	r := BoundingRect(pts)
	if !r.Min.Eq(Pt(-2, -1)) || !r.Max.Eq(Pt(4, 5)) {
		t.Errorf("BoundingRect = %v", r)
	}
}

// Property: Clamp output is always contained in the rectangle and is a
// no-op for interior points.
func TestClampProperty(t *testing.T) {
	f := func(px, py float64) bool {
		r := RectWH(Pt(-5, -5), 10, 10)
		p := clampPt(px, py)
		c := r.Clamp(p)
		if !r.Contains(c) {
			return false
		}
		if r.Contains(p) && !c.Eq(p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: the HStrip strips tile the rectangle — every random interior point lies in
// exactly one strip (strict containment).
func TestHStripsTileProperty(t *testing.T) {
	r := RectWH(Pt(0, 0), 7, 5)
	strips := hstrips(r, 4)
	f := func(px, py float64) bool {
		p := Pt(math.Mod(math.Abs(px), 7), math.Mod(math.Abs(py), 5))
		n := 0
		for _, s := range strips {
			if s.ContainsStrict(p) {
				n++
			}
		}
		return n == 1
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
