// Package adversary implements the paper's lower-bound constructions
// (Theorems 2 and 3) against concrete algorithm executions.
//
// The paper's adversary places each hidden robot at the exact last point of
// its disk the algorithm explores. For a deterministic algorithm this can be
// realized by replay: run the algorithm, record the time at which every cell
// of every disk was first covered by a radius-1 snapshot, move each hidden
// robot to (the center of) the cell of its disk covered last, and run again.
// Each replay round weakly increases the work the algorithm must do before
// its first discovery in each disk; a handful of rounds realizes the
// Ω(area/2) sweeping cost the bounds rest on.
//
// Substitution note: coverage is tracked on a finite cell grid (resolution
// ℓ/16), so placements are adversarial up to one cell — a (1−ε) factor on
// the area argument, irrelevant to the Ω(·) shape.
package adversary

import (
	"math"

	"freezetag/internal/geom"
)

// Tracker accumulates look-coverage over a rectangular region at a fixed
// cell resolution and remembers when each cell was first covered.
type Tracker struct {
	m      geom.Metric
	region geom.Rect
	cell   float64
	nx, ny int
	// firstCover[i] is the virtual time cell i was first covered by a
	// snapshot; NaN when never covered.
	firstCover []float64
}

// NewTrackerIn builds a tracker over region with the given cell size, whose
// radius-1 looks are measured under metric m, matching a simulation run
// under the same metric.
func NewTrackerIn(m geom.Metric, region geom.Rect, cell float64) *Tracker {
	if cell <= 0 {
		panic("adversary: cell size must be positive")
	}
	nx := int(math.Ceil(region.Width()/cell)) + 1
	ny := int(math.Ceil(region.Height()/cell)) + 1
	fc := make([]float64, nx*ny)
	for i := range fc {
		fc[i] = math.NaN()
	}
	return &Tracker{m: geom.MetricOrL2(m), region: region, cell: cell, nx: nx, ny: ny, firstCover: fc}
}

func (t *Tracker) cellCenter(ix, iy int) geom.Point {
	return geom.Pt(
		t.region.Min.X+(float64(ix)+0.5)*t.cell,
		t.region.Min.Y+(float64(iy)+0.5)*t.cell,
	)
}

// Mark records a radius-1 snapshot taken at p at virtual time tm: every cell
// whose center lies within metric distance 1 of p is covered. The scan box
// p ± 1 bounds the look ball under every supported metric (each dominates
// the Chebyshev distance, so its unit ball fits the unit square).
func (t *Tracker) Mark(p geom.Point, tm float64) {
	minX := int(math.Floor((p.X - 1 - t.region.Min.X) / t.cell))
	maxX := int(math.Ceil((p.X + 1 - t.region.Min.X) / t.cell))
	minY := int(math.Floor((p.Y - 1 - t.region.Min.Y) / t.cell))
	maxY := int(math.Ceil((p.Y + 1 - t.region.Min.Y) / t.cell))
	for ix := max(0, minX); ix <= maxX && ix < t.nx; ix++ {
		for iy := max(0, minY); iy <= maxY && iy < t.ny; iy++ {
			idx := iy*t.nx + ix
			if !math.IsNaN(t.firstCover[idx]) {
				continue
			}
			if t.m.Dist(t.cellCenter(ix, iy), p) <= 1+geom.Eps {
				t.firstCover[idx] = tm
			}
		}
	}
}

// LastCovered returns the point of the disk covered latest (preferring any
// never-covered cell) along with its cover time; covered == false when some
// cell of the disk was never covered at all. The disk is measured under the
// tracker's metric: for a NewTrackerIn tracker, d is the metric ball
// B_m(d.Center, d.R).
func (t *Tracker) LastCovered(d geom.Disk) (pos geom.Point, when float64, covered bool) {
	bestT := math.Inf(-1)
	var bestP geom.Point
	found := false
	minX := int(math.Floor((d.Center.X - d.R - t.region.Min.X) / t.cell))
	maxX := int(math.Ceil((d.Center.X + d.R - t.region.Min.X) / t.cell))
	minY := int(math.Floor((d.Center.Y - d.R - t.region.Min.Y) / t.cell))
	maxY := int(math.Ceil((d.Center.Y + d.R - t.region.Min.Y) / t.cell))
	for ix := max(0, minX); ix <= maxX && ix < t.nx; ix++ {
		for iy := max(0, minY); iy <= maxY && iy < t.ny; iy++ {
			c := t.cellCenter(ix, iy)
			// Keep candidate cells strictly inside the disk so adversarial
			// placements never leak outside D_c (which would break the
			// instance's ℓ-connectivity guarantee).
			if t.m.Dist(c, d.Center) > d.R-t.cell {
				continue
			}
			ft := t.firstCover[iy*t.nx+ix]
			if math.IsNaN(ft) {
				return c, math.Inf(1), false
			}
			if ft > bestT {
				bestT, bestP, found = ft, c, true
			}
		}
	}
	if !found {
		// Disk smaller than a cell: fall back to its center.
		return d.Center, 0, true
	}
	return bestP, bestT, true
}

// CoveredFraction returns the fraction of disk cells covered, with the disk
// measured under the tracker's metric.
func (t *Tracker) CoveredFraction(d geom.Disk) float64 {
	total, cov := 0, 0
	minX := int(math.Floor((d.Center.X - d.R - t.region.Min.X) / t.cell))
	maxX := int(math.Ceil((d.Center.X + d.R - t.region.Min.X) / t.cell))
	minY := int(math.Floor((d.Center.Y - d.R - t.region.Min.Y) / t.cell))
	maxY := int(math.Ceil((d.Center.Y + d.R - t.region.Min.Y) / t.cell))
	for ix := max(0, minX); ix <= maxX && ix < t.nx; ix++ {
		for iy := max(0, minY); iy <= maxY && iy < t.ny; iy++ {
			if t.m.Dist(t.cellCenter(ix, iy), d.Center) > d.R+geom.Eps {
				continue
			}
			total++
			if !math.IsNaN(t.firstCover[iy*t.nx+ix]) {
				cov++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(cov) / float64(total)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
