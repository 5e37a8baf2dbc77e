// Package separator implements the paper's geometric separators (§2.3).
//
// Given a square S of width R > 2ℓ, sep(S) is the annular region between S
// and the concentric square of width R−2ℓ. Lemma 3: any path of the ℓ-disk
// graph connecting a robot inside S to one outside contains a robot located
// in sep(S); Corollary 2: an empty separator splits the instance cleanly.
package separator

import (
	"freezetag/internal/geom"
)

// Sep describes the separator annulus of a square.
type Sep struct {
	Outer geom.Square
	Ell   float64
	// rects[:n] is the annulus cut into the rectangles a sweep covers (see
	// Rects), computed once by Of.
	rects [4]geom.Rect
	n     int
}

// Of returns the separator of square s for connectivity parameter ell.
// The paper requires s.Width > 2ℓ; narrower squares yield a separator that
// degenerates to the full square (inner region empty), which is still sound:
// membership only grows.
func Of(s geom.Square, ell float64) Sep {
	sp := Sep{Outer: s, Ell: ell}
	out := s.Rect()
	inner := sp.Inner()
	if inner.Width <= 0 {
		sp.rects[0], sp.n = out, 1
		return sp
	}
	in := inner.Rect()
	sp.rects = [4]geom.Rect{
		{Min: geom.Pt(out.Min.X, in.Max.Y), Max: out.Max},                     // top strip
		{Min: out.Min, Max: geom.Pt(out.Max.X, in.Min.Y)},                     // bottom strip
		{Min: geom.Pt(out.Min.X, in.Min.Y), Max: geom.Pt(in.Min.X, in.Max.Y)}, // left side
		{Min: geom.Pt(in.Max.X, in.Min.Y), Max: geom.Pt(out.Max.X, in.Max.Y)}, // right side
	}
	sp.n = 4
	return sp
}

// Inner returns the inner square of width R−2ℓ (collapsed to width 0 when
// R ≤ 2ℓ).
func (sp Sep) Inner() geom.Square {
	w := sp.Outer.Width - 2*sp.Ell
	if w < 0 {
		w = 0
	}
	return geom.Sq(sp.Outer.Center, w)
}

// Contains reports whether p lies in the separator annulus: inside the outer
// square but not strictly inside the inner square.
func (sp Sep) Contains(p geom.Point) bool {
	if !sp.Outer.Contains(p) {
		return false
	}
	in := sp.Inner().Rect()
	// Strict interior of the inner square is excluded; its boundary belongs
	// to the separator.
	return !(p.X > in.Min.X+geom.Eps && p.X < in.Max.X-geom.Eps &&
		p.Y > in.Min.Y+geom.Eps && p.Y < in.Max.Y-geom.Eps)
}

// Filter returns the subset of pts lying in the separator, preserving order.
func (sp Sep) Filter(pts []geom.Point) []geom.Point {
	var out []geom.Point
	for _, p := range pts {
		if sp.Contains(p) {
			out = append(out, p)
		}
	}
	return out
}

// Rects decomposes the separator into four axis-parallel rectangles (top and
// bottom full-width strips plus left and right side strips), the shape the
// Exploration phase of ASeparator sweeps with explore.Rect. For R ≤ 2ℓ it
// returns a single rectangle covering the whole square. The list is a view
// of the rectangles Of computed, so reading it allocates nothing; callers
// never write through it.
func (sp *Sep) Rects() []geom.Rect { return sp.rects[:sp.n] }

// SeparatesLemma3 verifies the Lemma 3 property on a concrete instance: for
// every edge (u,v) of the ℓ-disk graph over pts with u strictly inside the
// inner square and v outside the outer square (or vice versa), the edge is
// impossible — equivalently, every ℓ-path from inside to outside must stop
// in the annulus. The check returns false only if some pair violates it,
// i.e. some u inside and v outside are within ℓ with neither in sep(S).
// Used by the property test-suite.
func (sp Sep) SeparatesLemma3(pts []geom.Point) bool {
	inner := sp.Inner().Rect()
	for i, u := range pts {
		if !inner.Contains(u) || sp.Contains(u) {
			continue // u is not strictly interior
		}
		for j, v := range pts {
			if i == j || sp.Outer.Contains(v) {
				continue // v is not strictly exterior
			}
			if u.Dist(v) <= sp.Ell+geom.Eps {
				return false
			}
		}
	}
	return true
}
