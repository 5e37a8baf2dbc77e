package diskgraph

import (
	"math"

	"freezetag/internal/geom"
)

// Params bundles the three instance parameters the paper's bounds are stated
// in, computed exactly from a source and point set.
type Params struct {
	Rho float64 // ρ*: max distance from the source to any point of P
	Ell float64 // ℓ*: connectivity threshold of (P, s)
	Xi  float64 // ξℓ*: ℓ*-eccentricity of the source (see XiAtIn for other ℓ)
	N   int     // |P|
}

// ComputeParamsIn returns the exact (ρ*, ℓ*, ξ_{ℓ*}) of the instance under
// metric m (nil defaults to ℓ2). The three parameters are all
// metric-dependent: the same point set has a different radius, connectivity
// threshold, and eccentricity under ℓ1, ℓ2 and ℓ∞.
//
// The derivation is the solver service's cold path, so it is organized
// around sharing: the vertex slice is materialized once; ℓ* comes from the
// grid-accelerated bottleneck pass (near-linear for well-conditioned sets,
// see ConnectivityThresholdIn); ρ* from one pass over the points
// (geom.MaxDistFromIn); and the δ-ball graph is built once, at δ = ℓ*, for
// ξ. Every value is bit-identical to the dense derivation it replaced.
func ComputeParamsIn(m geom.Metric, source geom.Point, points []geom.Point) Params {
	m = geom.MetricOrL2(m)
	pts := make([]geom.Point, 0, len(points)+1)
	pts = append(pts, source)
	pts = append(pts, points...)
	p := Params{
		Rho: geom.MaxDistFromIn(m, source, points),
		Ell: bottleneckIn(m, pts),
		N:   len(points),
	}
	if len(points) > 0 {
		p.Xi = newFromPts(m, pts, p.Ell).Eccentricity(0)
	}
	return p
}

// ConnectivityThresholdIn computes ℓ* under metric m: the least δ making the
// δ-ball graph of P ∪ {s} connected. It equals the largest edge weight of
// the metric minimum spanning tree (the bottleneck connectivity radius).
// Small inputs run the dense O(n²) Prim pass; large ones a spatial-grid
// Borůvka whose component-merging edges are found with nearest-foreign-
// vertex queries — near-linear for well-conditioned point sets, exact for
// all (see bottleneckGridIn), and bit-identical to the dense pass, which
// remains available as ConnectivityThresholdDenseIn and serves as the
// property-test oracle. Returns 0 when P is empty.
func ConnectivityThresholdIn(m geom.Metric, source geom.Point, points []geom.Point) float64 {
	m = geom.MetricOrL2(m)
	pts := make([]geom.Point, 0, len(points)+1)
	pts = append(pts, source)
	pts = append(pts, points...)
	return bottleneckIn(m, pts)
}

// denseBottleneckCutoff is the vertex count below which the dense Prim pass
// beats the grid build it would amortize. Purely a performance dispatch:
// both passes return identical floats.
const denseBottleneckCutoff = 96

// bottleneckIn computes the bottleneck-MST weight of the complete metric
// graph over pts, dispatching between the dense and grid passes.
func bottleneckIn(m geom.Metric, pts []geom.Point) float64 {
	if len(pts) <= denseBottleneckCutoff {
		return bottleneckDenseIn(m, pts)
	}
	minX, minY, maxX, maxY := math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		return 0 // every vertex coincides: all edges weigh exactly 0
	}
	cell := ext / math.Sqrt(float64(len(pts)))
	if math.IsNaN(ext) || math.IsInf(ext, 0) || cell == 0 {
		// Degenerate coordinates: NaN/Inf spreads, or a subnormal extent
		// whose cell size underflows to 0 (the coordinate divisions would
		// then overflow int32). Keep the dense pass's exact behavior.
		return bottleneckDenseIn(m, pts)
	}
	return bottleneckGridIn(m, pts, minX, minY, cell)
}

// ConnectivityThresholdDenseIn is the dense O(n²)-time O(n)-memory Prim
// pass over the complete metric graph — the oracle the grid pass is
// cross-checked against, and the fallback for degenerate coordinates.
func ConnectivityThresholdDenseIn(m geom.Metric, source geom.Point, points []geom.Point) float64 {
	m = geom.MetricOrL2(m)
	pts := make([]geom.Point, 0, len(points)+1)
	pts = append(pts, source)
	pts = append(pts, points...)
	return bottleneckDenseIn(m, pts)
}

func bottleneckDenseIn(m geom.Metric, pts []geom.Point) float64 {
	n := len(pts)
	if n <= 1 {
		return 0
	}
	best := make([]float64, n) // cheapest connection cost into the tree
	inTree := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	var bottleneck float64
	for iter := 0; iter < n; iter++ {
		v := -1
		bd := math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && best[i] < bd {
				v, bd = i, best[i]
			}
		}
		if v == -1 {
			break // disconnected input is impossible: complete metric graph
		}
		inTree[v] = true
		if bd > bottleneck {
			bottleneck = bd
		}
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := m.Dist(pts[v], pts[i]); d < best[i] {
					best[i] = d
				}
			}
		}
	}
	return bottleneck
}

// XiAtIn computes ξℓ under metric m: the maximum shortest-path distance from
// s in the ℓ-ball graph of P ∪ {s}, equivalently the minimum weighted depth
// over spanning trees rooted at s. Returns +Inf when the ℓ-ball graph is
// disconnected.
func XiAtIn(m geom.Metric, source geom.Point, points []geom.Point, ell float64) float64 {
	if len(points) == 0 {
		return 0
	}
	g := NewIn(m, source, points, ell)
	return g.Eccentricity(0)
}

// Admissible reports whether the tuple (ℓ, ρ, n) is admissible per the paper:
// ℓ ≤ ρ ≤ n·ℓ (with ℓ, ρ > 0).
func Admissible(ell, rho float64, n int) bool {
	return ell > 0 && rho >= ell && rho <= float64(n)*ell
}

// CheckProposition1 verifies the inequality chain of Proposition 1 for the
// instance: 0 < ℓ* ≤ ρ* ≤ ξℓ ≤ n·ℓ* (evaluated at ℓ = ℓ*). It returns true
// when every inequality holds within geom.Eps, and is exercised by the
// property-based test-suite on random instances.
func CheckProposition1(source geom.Point, points []geom.Point) bool {
	if len(points) == 0 {
		return true
	}
	p := ComputeParamsIn(nil, source, points)
	eps := geom.Eps * float64(len(points)+1)
	return p.Ell > 0 &&
		p.Ell <= p.Rho+eps &&
		p.Rho <= p.Xi+eps &&
		p.Xi <= float64(p.N)*p.Ell+eps
}
