package geom

import "fmt"

// Disk is the closed disk B_c(r) of center Center and radius R, the paper's
// B_p(r) notation.
type Disk struct {
	Center Point
	R      float64
}

// DiskAt builds the disk of the given center and radius.
func DiskAt(center Point, r float64) Disk { return Disk{Center: center, R: r} }

// Contains reports whether p ∈ B_c(r), with Eps slack.
func (d Disk) Contains(p Point) bool { return d.Center.Within(p, d.R) }

// BoundingSquare returns the smallest axis-parallel square containing d,
// used when a disk must be explored with the rectangle routine of Lemma 1.
func (d Disk) BoundingSquare() Square { return Square{d.Center, 2 * d.R} }

// String implements fmt.Stringer.
func (d Disk) String() string { return fmt.Sprintf("B(%v,%.6g)", d.Center, d.R) }
