package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-parallel rectangle [MinX, MaxX] × [MinY, MaxY].
// A Rect with Min == Max is a single point; degenerate (inverted) rectangles
// are normalized by NewRect.
type Rect struct {
	Min, Max Point
}

// NewRect builds the axis-parallel rectangle spanned by corners a and b,
// normalizing the coordinate order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// RectWH builds the rectangle with lower-left corner ll, width w and height h.
// Negative extents are normalized.
func RectWH(ll Point, w, h float64) Rect {
	return NewRect(ll, Point{ll.X + w, ll.Y + h})
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns width × height.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the center point of r.
func (r Rect) Center() Point { return r.Min.Midpoint(r.Max) }

// Diam returns the diagonal length, the diameter of r.
func (r Rect) Diam() float64 { return r.Min.Dist(r.Max) }

// Contains reports whether p lies inside r, with Eps slack on each side.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// ContainsStrict reports whether p lies inside r with no tolerance, used by
// partition logic that must assign boundary points to exactly one cell.
func (r Rect) ContainsStrict(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// DistTo returns the Euclidean distance from p to the closest point of r
// (zero when p is inside).
func (r Rect) DistTo(p Point) float64 { return p.Dist(r.Clamp(p)) }

// Corners returns the four corners in counter-clockwise order starting from
// the lower-left.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// LowerLeft returns the minimum corner. AGrid and AWave gather teams there.
func (r Rect) LowerLeft() Point { return r.Min }

// SplitLongestSide cuts r into two halves across its longer side. Ties are
// split vertically (along x). Used by the wake-up tree construction, where
// the alternating cut directions make the diameter shrink geometrically.
func (r Rect) SplitLongestSide() (Rect, Rect) {
	if r.Width() >= r.Height() {
		mid := (r.Min.X + r.Max.X) / 2
		return Rect{r.Min, Point{mid, r.Max.Y}}, Rect{Point{mid, r.Min.Y}, r.Max}
	}
	mid := (r.Min.Y + r.Max.Y) / 2
	return Rect{r.Min, Point{r.Max.X, mid}}, Rect{Point{r.Min.X, mid}, r.Max}
}

// HStrip returns the i-th (0-based, bottom-up) of the k horizontal strips
// of equal height that partition r; the top strip ends exactly at r.Max.Y.
// It requires 0 ≤ i < k. This is the Lemma 1 team-exploration partition.
func (r Rect) HStrip(i, k int) Rect {
	if i < 0 || i >= k {
		panic(fmt.Sprintf("geom: HStrip %d of %d", i, k))
	}
	h := r.Height() / float64(k)
	y0 := r.Min.Y + float64(i)*h
	y1 := r.Min.Y + float64(i+1)*h
	if i == k-1 {
		y1 = r.Max.Y // absorb rounding on the top strip
	}
	return Rect{Point{r.Min.X, y0}, Point{r.Max.X, y1}}
}

// BoundingRect returns the smallest axis-parallel rectangle containing pts.
// It panics on an empty slice.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect of empty point set")
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v-%v]", r.Min, r.Max)
}
