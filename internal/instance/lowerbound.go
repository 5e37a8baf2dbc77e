package instance

import (
	"fmt"
	"math"

	"freezetag/internal/geom"
)

// --- Theorem 2 construction: centers C and connected subsets C_m ------------

// CentersC returns the paper's set C = {(x,y) ∈ (ℓ/2·Z)² : √(x²+y²) ≤ ρ−ℓ/4}
// — the candidate disk centers of the Theorem 2 lower-bound construction
// (Figure 5a). The origin is included (C; C* excludes it).
func CentersC(rho, ell float64) []geom.Point {
	h := ell / 2
	lim := rho - ell/4
	kmax := int(math.Floor(lim / h))
	var out []geom.Point
	for i := -kmax; i <= kmax; i++ {
		for j := -kmax; j <= kmax; j++ {
			p := geom.Pt(float64(i)*h, float64(j)*h)
			if p.Norm() <= lim+geom.Eps {
				out = append(out, p)
			}
		}
	}
	return out
}

// ConnectedCenters returns a connected subset C_m ⊆ C* of exactly m centers
// that contains the vertical column {(0, ℓ/2), …, (0, ⌊ρ/ℓ⌋·ℓ/2)} required by
// the Theorem 2 proof, built by BFS from the column over the grid adjacency
// (axis-neighbors at distance ℓ/2). It panics when m exceeds |C*| — callers
// clamp m = min(n, |C*|) first, mirroring the paper.
func ConnectedCenters(rho, ell float64, m int) []geom.Point {
	all := CentersC(rho, ell)
	type key [2]int
	h := ell / 2
	toKey := func(p geom.Point) key {
		return key{int(math.Round(p.X / h)), int(math.Round(p.Y / h))}
	}
	inC := make(map[key]bool, len(all))
	for _, p := range all {
		inC[toKey(p)] = true
	}
	if m > len(all)-1 {
		panic(fmt.Sprintf("instance: m=%d exceeds |C*|=%d", m, len(all)-1))
	}
	var out []geom.Point
	seen := map[key]bool{{0, 0}: true} // origin is in C but not in C*
	var queue []key
	// Seed with the mandatory column (0, j·ℓ/2) for j = 1..⌊ρ/ℓ⌋.
	colLen := int(math.Floor(rho / ell))
	for j := 1; j <= colLen && len(out) < m; j++ {
		k := key{0, j}
		if !inC[k] || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, geom.Pt(0, float64(j)*h))
		queue = append(queue, k)
	}
	if len(queue) == 0 {
		// Degenerate (ρ < ℓ): BFS from the origin's neighbors instead.
		queue = append(queue, key{0, 0})
	}
	for len(queue) > 0 && len(out) < m {
		k := queue[0]
		queue = queue[1:]
		for _, d := range [4]key{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nk := key{k[0] + d[0], k[1] + d[1]}
			if !inC[nk] || seen[nk] {
				continue
			}
			seen[nk] = true
			out = append(out, geom.Pt(float64(nk[0])*h, float64(nk[1])*h))
			queue = append(queue, nk)
			if len(out) == m {
				break
			}
		}
	}
	return out
}

// DiskGridStatic builds a static Theorem 2-style instance: one robot per
// disk D_c = B_c(ℓ/4) for the m = min(n, |C*|) connected centers, each placed
// at the point of its disk diametrically away from the origin — the spot a
// sweep from the source tends to reach last. The truly adversarial (lazy)
// placement lives in package adversary; this static variant provides a
// deterministic, reusable hard instance.
func DiskGridStatic(rho, ell float64, n int) *Instance {
	all := CentersC(rho, ell)
	m := n
	if m > len(all)-1 {
		m = len(all) - 1
	}
	centers := ConnectedCenters(rho, ell, m)
	pts := make([]geom.Point, 0, len(centers))
	for _, c := range centers {
		dir := c
		if dir.Norm() < geom.Eps {
			dir = geom.Pt(1, 0)
		} else {
			dir = dir.Scale(1 / dir.Norm())
		}
		pts = append(pts, c.Add(dir.Scale(ell/4)))
	}
	return &Instance{
		Name:   fmt.Sprintf("diskgrid-rho%.3g-ell%.3g", rho, ell),
		Source: geom.Origin,
		Points: pts,
	}
}

// CentersOnly builds the baseline (non-adversarial) variant of the Theorem 2
// layout with one robot exactly at each connected center — the "easy"
// placement the replay adversary is compared against.
func CentersOnly(rho, ell float64, n int) *Instance {
	all := CentersC(rho, ell)
	m := n
	if m > len(all)-1 {
		m = len(all) - 1
	}
	return &Instance{
		Name:   fmt.Sprintf("centers-rho%.3g-ell%.3g", rho, ell),
		Source: geom.Origin,
		Points: ConnectedCenters(rho, ell, m),
	}
}

// --- Theorem 6 construction: rectilinear path Π ------------------------------

// PathSpec carries the Theorem 6 parameters.
type PathSpec struct {
	Ell float64 // connectivity parameter ℓ (must be > 0)
	Rho float64 // radius ρ
	B   float64 // energy budget (must be > ℓ per the theorem)
	Xi  float64 // prescribed ℓ-eccentricity ξ ∈ [ρ, ρ²/(2(B+1))+1]
}

// BuildPath constructs the Theorem 6 rectilinear-path instance: a path Π of
// horizontal segments of length H = ρ/√2 and vertical segments of length
// V = B+1, with robots spread along it at spacing ≤ ℓ so that the ℓ-disk
// graph follows the path with no shortcuts (V > ℓ keeps horizontal runs more
// than an energy budget apart). Robots are also spread along [v0, (ρ,0)]
// when needed so that ρ* = ρ.
//
// The instance's ξℓ equals the length of the generated path (≈ the requested
// ξ, quantized to whole sections), and ℓ* ≤ ℓ.
func BuildPath(spec PathSpec) (*Instance, error) {
	if spec.Ell <= 0 || spec.Rho < spec.Ell {
		return nil, fmt.Errorf("instance: invalid spec %+v", spec)
	}
	if spec.B <= spec.Ell {
		return nil, fmt.Errorf("instance: Theorem 6 requires B > ℓ (B=%v ℓ=%v)", spec.B, spec.Ell)
	}
	h := spec.Rho / math.Sqrt2
	v := spec.B + 1
	if spec.Xi < spec.Rho {
		return nil, fmt.Errorf("instance: ξ=%v below ρ=%v", spec.Xi, spec.Rho)
	}
	// Theorem 6's upper range (Eq. 15): beyond it the path's vertical extent
	// would push ρ* past ρ.
	if limit := spec.Rho*spec.Rho/(2*(spec.B+1)) + 1; spec.Xi > limit+geom.Eps {
		return nil, fmt.Errorf("instance: ξ=%v exceeds admissible max %v (Eq. 15)", spec.Xi, limit)
	}
	j := int(math.Floor(spec.Xi / (h + v)))
	// Build the polyline u0 → v0 → v1 → u1 → u2 → v2 → … : section k is the
	// horizontal segment [u_k v_k] followed by a vertical hop on alternating
	// sides.
	var poly []geom.Point
	poly = append(poly, geom.Origin) // u0 = ps
	for k := 0; k <= j; k++ {
		y := float64(k) * v
		uk := geom.Pt(0, y)
		vk := geom.Pt(h, y)
		if k%2 == 0 {
			// Arrive at u_k, traverse to v_k, climb on the right side.
			poly = append(poly, uk, vk)
		} else {
			poly = append(poly, vk, uk)
		}
	}
	// Truncate the polyline at total length ξ.
	poly = truncatePolyline(poly, spec.Xi)
	pts := spreadAlong(poly, spec.Ell)
	// Ensure ρ* = ρ: extend along [v0, (ρ,0)] when the path stays short.
	far := geom.MaxDistFromIn(nil, geom.Origin, pts)
	if far < spec.Rho-geom.Eps {
		// Anchor a robot at v0 itself (the main path's spread rarely lands
		// exactly there), then spread along [v0, (ρ,0)] at ℓ spacing.
		v0 := geom.Pt(h, 0)
		pts = append(pts, v0)
		pts = append(pts, spreadAlong([]geom.Point{v0, geom.Pt(spec.Rho, 0)}, spec.Ell)...)
	}
	return &Instance{
		Name:   fmt.Sprintf("path-xi%.3g-B%.3g-rho%.3g", spec.Xi, spec.B, spec.Rho),
		Source: geom.Origin,
		Points: pts,
	}, nil
}

// truncatePolyline cuts the polyline at arc length limit.
func truncatePolyline(poly []geom.Point, limit float64) []geom.Point {
	out := []geom.Point{poly[0]}
	acc := 0.0
	for i := 1; i < len(poly); i++ {
		d := poly[i-1].Dist(poly[i])
		if acc+d >= limit {
			t := (limit - acc) / d
			out = append(out, poly[i-1].Lerp(poly[i], t))
			return out
		}
		acc += d
		out = append(out, poly[i])
	}
	return out
}

// spreadAlong places points along the polyline every `step` of arc length,
// starting one step after the first vertex (the source sits at poly[0] and
// is not a robot) and always including segment endpoints' final point.
func spreadAlong(poly []geom.Point, step float64) []geom.Point {
	var pts []geom.Point
	carry := step
	for i := 1; i < len(poly); i++ {
		a, b := poly[i-1], poly[i]
		segLen := a.Dist(b)
		pos := carry
		for pos < segLen {
			pts = append(pts, a.Lerp(b, pos/segLen))
			pos += step
		}
		carry = pos - segLen
		if carry > step-geom.Eps {
			carry = step
		}
	}
	// Always include the final endpoint so the path's far end is populated.
	last := poly[len(poly)-1]
	if len(pts) == 0 || !pts[len(pts)-1].Eq(last) {
		pts = append(pts, last)
	}
	return pts
}
