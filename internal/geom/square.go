package geom

import (
	"fmt"
	"math"
)

// Square is an axis-parallel square identified by its center and width. The
// paper's algorithms reason about squares by center (team meeting points) and
// width (the scale parameter R), so Square keeps both explicit rather than
// reducing to Rect.
type Square struct {
	Center Point
	Width  float64
}

// Sq builds the square of the given center and width.
func Sq(center Point, width float64) Square { return Square{Center: center, Width: width} }

// Rect converts s to its Rect representation.
func (s Square) Rect() Rect {
	h := s.Width / 2
	return Rect{
		Min: Point{s.Center.X - h, s.Center.Y - h},
		Max: Point{s.Center.X + h, s.Center.Y + h},
	}
}

// Contains reports whether p lies in s (closed, Eps slack).
func (s Square) Contains(p Point) bool { return s.Rect().Contains(p) }

// LowerLeft returns the minimum corner of s.
func (s Square) LowerLeft() Point { return s.Rect().Min }

// Diam returns the diagonal length of s.
func (s Square) Diam() float64 { return s.Width * sqrt2 }

// SubSquares partitions s into four sub-squares of half width, ordered
// lower-left, lower-right, upper-right, upper-left (counter-clockwise), the
// order ASeparator uses for sub-squares S1..S4.
func (s Square) SubSquares() [4]Square {
	q := s.Width / 4
	w := s.Width / 2
	return [4]Square{
		{Point{s.Center.X - q, s.Center.Y - q}, w},
		{Point{s.Center.X + q, s.Center.Y - q}, w},
		{Point{s.Center.X + q, s.Center.Y + q}, w},
		{Point{s.Center.X - q, s.Center.Y + q}, w},
	}
}

// Adjacent8 returns the eight squares of the same width adjacent to s in the
// regular grid of width-s.Width squares, in counter-clockwise order starting
// from the east neighbor. AGrid and AWave visit neighbors in this order.
func (s Square) Adjacent8() [8]Square {
	w := s.Width
	c := s.Center
	off := [8]Point{
		{w, 0}, {w, w}, {0, w}, {-w, w},
		{-w, 0}, {-w, -w}, {0, -w}, {w, -w},
	}
	var out [8]Square
	for i, d := range off {
		out[i] = Square{c.Add(d), w}
	}
	return out
}

// GridCell returns the square of the regular grid of the given width that
// contains p. Grid squares are centered at {(k·w, k'·w)} following the AGrid
// partition "squares of width 2ℓ centered at positions (2kℓ, 2k'ℓ)".
// Cells are half-open per axis as (c−w/2, c+w/2]: a point exactly on a
// boundary belongs to the lower-index cell. This keeps a robot at distance
// exactly ℓ in the +x/+y direction inside the source's cell, which the AGrid
// round-0 chain relies on (see internal/dftp).
func GridCell(p Point, width float64) Square {
	kx := roundToGrid(p.X, width)
	ky := roundToGrid(p.Y, width)
	return Square{Point{kx * width, ky * width}, width}
}

// roundToGrid returns the integer k with x ∈ (k·w − w/2, k·w + w/2].
func roundToGrid(x, w float64) float64 {
	return math.Ceil(x/w - 0.5)
}

// GridIndex returns the integer grid coordinates (kx, ky) of the cell of
// width w containing p, such that the cell center is (kx·w, ky·w).
func GridIndex(p Point, w float64) (int, int) {
	return int(roundToGrid(p.X, w)), int(roundToGrid(p.Y, w))
}

// String implements fmt.Stringer.
func (s Square) String() string {
	return fmt.Sprintf("Sq(c=%v w=%.6g)", s.Center, s.Width)
}

const sqrt2 = 1.41421356237309504880168872420969808
