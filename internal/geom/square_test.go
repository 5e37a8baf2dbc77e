package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSquareRect(t *testing.T) {
	s := Sq(Pt(1, 1), 4)
	r := s.Rect()
	if !r.Min.Eq(Pt(-1, -1)) || !r.Max.Eq(Pt(3, 3)) {
		t.Errorf("Rect = %v", r)
	}
	if !s.LowerLeft().Eq(Pt(-1, -1)) {
		t.Errorf("LowerLeft = %v", s.LowerLeft())
	}
	if math.Abs(s.Diam()-4*math.Sqrt2) > 1e-9 {
		t.Errorf("Diam = %v", s.Diam())
	}
}

func TestSubSquares(t *testing.T) {
	s := Sq(Pt(0, 0), 8)
	sub := s.SubSquares()
	wantCenters := [4]Point{Pt(-2, -2), Pt(2, -2), Pt(2, 2), Pt(-2, 2)}
	for i, ss := range sub {
		if !ss.Center.Eq(wantCenters[i]) {
			t.Errorf("sub %d center = %v, want %v", i, ss.Center, wantCenters[i])
		}
		if ss.Width != 4 {
			t.Errorf("sub %d width = %v", i, ss.Width)
		}
	}
}

func TestAdjacent8(t *testing.T) {
	s := Sq(Pt(0, 0), 2)
	adj := s.Adjacent8()
	// First is east, order counter-clockwise.
	if !adj[0].Center.Eq(Pt(2, 0)) {
		t.Errorf("adj[0] = %v", adj[0])
	}
	if !adj[2].Center.Eq(Pt(0, 2)) {
		t.Errorf("adj[2] = %v", adj[2])
	}
	if !adj[4].Center.Eq(Pt(-2, 0)) {
		t.Errorf("adj[4] = %v", adj[4])
	}
	if !adj[6].Center.Eq(Pt(0, -2)) {
		t.Errorf("adj[6] = %v", adj[6])
	}
	seen := map[Point]bool{}
	for _, a := range adj {
		if a.Width != 2 {
			t.Errorf("adjacent width = %v", a.Width)
		}
		if seen[a.Center] {
			t.Errorf("duplicate adjacent center %v", a.Center)
		}
		seen[a.Center] = true
	}
}

func TestGridCell(t *testing.T) {
	// Width-2 grid: cells centered at even integers.
	cases := []struct {
		p    Point
		want Point
	}{
		{Pt(0, 0), Pt(0, 0)},
		{Pt(0.9, 0), Pt(0, 0)},
		{Pt(1.1, 0), Pt(2, 0)},
		{Pt(-0.9, -0.9), Pt(0, 0)},
		{Pt(-1.1, -1.1), Pt(-2, -2)},
		{Pt(1, 0), Pt(0, 0)}, // boundary ties go to the lower cell
		{Pt(3, 5), Pt(2, 4)}, // likewise on every axis
		{Pt(-1, -1), Pt(-2, -2)},
	}
	for _, c := range cases {
		got := GridCell(c.p, 2)
		if !got.Center.Eq(c.want) {
			t.Errorf("GridCell(%v) center = %v, want %v", c.p, got.Center, c.want)
		}
	}
}

func TestGridIndex(t *testing.T) {
	kx, ky := GridIndex(Pt(4.2, -3.9), 2)
	if kx != 2 || ky != -2 {
		t.Errorf("GridIndex = (%d,%d), want (2,-2)", kx, ky)
	}
}

// Property: every point belongs to the grid cell GridCell says it does.
func TestGridCellContainsProperty(t *testing.T) {
	f := func(px, py float64) bool {
		p := clampPt(px, py)
		cell := GridCell(p, 2)
		return cell.Contains(p)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: a grid cell's Adjacent8 are exactly the 8 distinct cells whose
// index differs by at most 1 in each coordinate.
func TestAdjacent8Property(t *testing.T) {
	f := func(px, py float64) bool {
		p := clampPt(px, py)
		cell := GridCell(p, 4)
		kx, ky := GridIndex(cell.Center, 4)
		seen := map[[2]int]bool{}
		for _, a := range cell.Adjacent8() {
			ax, ay := GridIndex(a.Center, 4)
			dx, dy := ax-kx, ay-ky
			if dx < -1 || dx > 1 || dy < -1 || dy > 1 || (dx == 0 && dy == 0) {
				return false
			}
			seen[[2]int{dx, dy}] = true
		}
		return len(seen) == 8
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestDisk(t *testing.T) {
	d := DiskAt(Pt(1, 1), 2)
	if !d.Contains(Pt(1, 3)) {
		t.Error("boundary point should be contained")
	}
	if d.Contains(Pt(1, 3.1)) {
		t.Error("exterior point should not be contained")
	}
	bs := d.BoundingSquare()
	if bs.Width != 4 || !bs.Center.Eq(Pt(1, 1)) {
		t.Errorf("BoundingSquare = %v", bs)
	}
}
