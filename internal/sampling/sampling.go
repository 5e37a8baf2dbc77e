// Package sampling implements ℓ-samplings (§2.4) and the distributed
// DFSampling procedure (§6.5).
//
// An ℓ-sampling of a region S is a set P′ ⊆ P ∩ S of robot positions that
// are pairwise more than ℓ apart; S is covered by P′ when every robot of S
// is within ℓ of some position of P′. DFSampling computes an ℓ-sampling by
// a depth-first search over the 2ℓ-disk graph of P ∩ S: around each sampled
// position the team explores the radius-2ℓ ball (clipped to S) with the
// Lemma 1 sweep, moves to any discovered robot that is > ℓ from every
// existing sample, recruits it, and backtracks when no such neighbor exists.
package sampling

import (
	"math"
	"sort"

	"freezetag/internal/geom"
)

// IsLSamplingIn reports whether pts are pairwise at metric distance > ℓ
// under m (the paper adds a point only when strictly farther than ℓ from
// all samples); the sampler's separation invariant holds in whichever
// metric the engine runs.
func IsLSamplingIn(m geom.Metric, pts []geom.Point, ell float64) bool {
	mm := geom.MetricOrL2(m)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if mm.Dist(pts[i], pts[j]) <= ell-geom.Eps {
				return false
			}
		}
	}
	return true
}

// Covers reports whether every point of P is within ℓ of some sample.
func Covers(samples, pop []geom.Point, ell float64) bool {
	for _, p := range pop {
		ok := false
		for _, s := range samples {
			if s.Within(p, ell) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// MaxSamples returns the Lemma 4 cardinality bound ⌈16R²/(πℓ²)⌉ on any
// ℓ-sampling of a width-R square.
func MaxSamples(r, ell float64) int {
	return int(math.Ceil(16 * r * r / (math.Pi * ell * ell)))
}

// SortSeeds orders seed positions per the paper's Sort(X): each seed is
// projected to the closest point of the border of square S, and seeds are
// sorted by the clockwise order of their projections around the center
// (ties broken by coordinates for determinism). The returned slice is a
// sorted copy; the input is not modified.
func SortSeeds(s geom.Square, seeds []geom.Point) []geom.Point {
	type keyed struct {
		p   geom.Point
		ang float64
	}
	ks := make([]keyed, len(seeds))
	for i, p := range seeds {
		proj := projectToBorder(s, p)
		v := proj.Sub(s.Center)
		ks[i] = keyed{p: p, ang: -v.Angle()} // negative angle = clockwise order
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].ang != ks[j].ang {
			return ks[i].ang < ks[j].ang
		}
		if ks[i].p.X != ks[j].p.X {
			return ks[i].p.X < ks[j].p.X
		}
		return ks[i].p.Y < ks[j].p.Y
	})
	out := make([]geom.Point, len(ks))
	for i, k := range ks {
		out[i] = k.p
	}
	return out
}

// projectToBorder returns the closest point to p on the boundary of s.
func projectToBorder(s geom.Square, p geom.Point) geom.Point {
	r := s.Rect()
	q := r.Clamp(p)
	if !q.Eq(p) {
		return q // p was outside: clamping lands on the border
	}
	// p inside: push to the nearest side.
	dl := p.X - r.Min.X
	dr := r.Max.X - p.X
	db := p.Y - r.Min.Y
	dt := r.Max.Y - p.Y
	m := math.Min(math.Min(dl, dr), math.Min(db, dt))
	switch m {
	case dl:
		return geom.Pt(r.Min.X, p.Y)
	case dr:
		return geom.Pt(r.Max.X, p.Y)
	case db:
		return geom.Pt(p.X, r.Min.Y)
	default:
		return geom.Pt(p.X, r.Max.Y)
	}
}
