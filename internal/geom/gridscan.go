package geom

import (
	"math"
	"sort"
)

// This file holds a grid-accelerated variant of the linear farthest-point
// scan in metric.go. It buckets the slice into square cells once per call
// (spatial.Grid imports geom, so geom carries its own one-shot bucketing)
// and returns exactly the same float64 the brute-force scan returns — the
// pruning argument below only ever discards points that cannot change the
// maximum, so the winning Dist call is the same call the dense scan makes.

// gridScanMinN is the size below which the dense scan wins: bucketing costs
// a map build, which only amortizes once the full linear max pass is big
// enough to matter.
const gridScanMinN = 48

// scanBoundMargin inflates cell pruning bounds by a hair so that the few
// ulps of rounding inside a metric's Dist can never make a bound computed
// at a cell corner dip below the computed distance of a point inside the
// cell. Metric distances are accurate to ~1e-13 relative; 1e-9 is orders of
// magnitude of slack and costs at most a handful of extra cells scanned.
const scanBoundMargin = 1 + 1e-9

// bboxOf returns the bounding box of pts; ok is false when any coordinate
// is NaN (the dense scan owns that degenerate case).
func bboxOf(pts []Point) (minX, minY, maxX, maxY float64, ok bool) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if math.IsNaN(maxX-minX) || math.IsNaN(maxY-minY) {
		return 0, 0, 0, 0, false
	}
	return minX, minY, maxX, maxY, true
}

// bucketPoints buckets the points themselves — contiguous per-cell blocks
// are what lets the farthest-point scan run sequentially and feed whole
// cells to DistBatch.
func bucketPoints(pts []Point, cell float64) map[[2]int][]Point {
	buckets := make(map[[2]int][]Point, len(pts))
	for _, p := range pts {
		k := [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
		buckets[k] = append(buckets[k], p)
	}
	return buckets
}

// scanBatchMin is the cell population below which the farthest-point scan
// stays per-point; both paths fold identical bits in identical order.
const scanBatchMin = 8

// MaxDistFromGridIn is MaxDistFromIn accelerated with cell bucketing and
// best-first pruning: cells are visited in decreasing order of an upper
// bound on the distance any of their points can reach (norms are convex, so
// the bound is attained at a cell corner), and the scan stops at the first
// cell whose bound cannot beat the best point seen. Exactly equal to the
// dense scan (same float64): the bound carries scanBoundMargin, so the true
// farthest point is never pruned, and its distance is computed by the same
// Dist call the dense scan makes.
func MaxDistFromGridIn(m Metric, o Point, pts []Point) float64 {
	if len(pts) < gridScanMinN {
		return MaxDistFromIn(m, o, pts)
	}
	m = MetricOrL2(m)
	minX, minY, maxX, maxY, ok := bboxOf(pts)
	if !ok {
		return MaxDistFromIn(m, o, pts)
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		return m.Dist(o, pts[0])
	}
	cell := ext / math.Sqrt(float64(len(pts)))
	buckets := bucketPoints(pts, cell)
	type cellBound struct {
		key   [2]int
		bound float64
	}
	bounds := make([]cellBound, 0, len(buckets))
	for k := range buckets {
		x0, y0 := float64(k[0])*cell, float64(k[1])*cell
		x1, y1 := x0+cell, y0+cell
		b := m.Dist(o, Pt(x0, y0))
		b = math.Max(b, m.Dist(o, Pt(x1, y0)))
		b = math.Max(b, m.Dist(o, Pt(x0, y1)))
		b = math.Max(b, m.Dist(o, Pt(x1, y1)))
		bounds = append(bounds, cellBound{key: k, bound: b * scanBoundMargin})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].bound > bounds[j].bound })
	batch := BatchAccelerated(m)
	var dists []float64
	var best float64
	for _, cb := range bounds {
		if cb.bound <= best {
			break // no remaining cell can contain a farther point
		}
		cp := buckets[cb.key]
		if batch && len(cp) >= scanBatchMin {
			if cap(dists) < len(cp) {
				dists = make([]float64, len(cp)+len(cp)/2)
			}
			d := dists[:len(cp)]
			DistBatch(m, o, cp, d)
			for _, dd := range d {
				if dd > best {
					best = dd
				}
			}
			continue
		}
		for _, q := range cp {
			if d := m.Dist(o, q); d > best {
				best = d
			}
		}
	}
	return best
}
