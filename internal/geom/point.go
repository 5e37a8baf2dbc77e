// Package geom provides the planar geometry kernel used throughout the
// distributed Freeze Tag simulator: points, rectangles, squares, disks, and
// the epsilon-tolerant predicates the Look-Compute-Move model relies on.
//
// All coordinates are float64. Distance comparisons that decide model-level
// facts (co-location, visibility, disk-graph adjacency) go through the
// tolerant predicates in this package so that accumulated floating-point
// error never flips a decision for well-separated inputs.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by the co-location and containment predicates.
// All paper constructions keep meaningful distances at least 1e-6 away from
// decision thresholds, so 1e-9 is safely below any real geometric gap while
// absorbing float64 rounding from path arithmetic.
const Eps = 1e-9

// Point is a position in the Euclidean plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Origin is the source position p0 = (0,0) of the dFTP model.
var Origin = Point{}

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance |pq|.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance, cheaper than Dist when only
// comparisons are needed.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// DistL1 returns the L1 (Manhattan) distance between p and q. The Theorem 6
// construction reasons about rectilinear paths in this norm.
func (p Point) DistL1(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide up to Eps in each coordinate.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Within reports whether p is within distance d of q, with Eps slack. This is
// the predicate behind visibility (d = 1), co-location (d = 0) and disk-graph
// adjacency (d = δ).
func (p Point) Within(q Point, d float64) bool {
	return p.Dist(q) <= d+Eps
}

// Lerp returns the point a fraction t of the way from p to q.
// t = 0 yields p, t = 1 yields q; t is not clamped.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Midpoint returns the midpoint of segment pq.
func (p Point) Midpoint(q Point) Point { return p.Lerp(q, 0.5) }

// Angle returns the angle of the vector p in radians, in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g,%.6g)", p.X, p.Y) }
