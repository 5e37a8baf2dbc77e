package diskgraph

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

func linePoints(n int, step float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i+1)*step, 0)
	}
	return pts
}

func TestNewAdjacency(t *testing.T) {
	// Source at origin, points at 1, 2, 3 on the x-axis; δ = 1 connects
	// consecutive vertices only.
	g := NewIn(nil, geom.Origin, linePoints(3, 1), 1)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if got := g.Neighbors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if got := g.Neighbors(1); len(got) != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if g.Degree(3) != 1 {
		t.Errorf("Degree(3) = %d", g.Degree(3))
	}
}

func TestZeroDelta(t *testing.T) {
	g := NewIn(nil, geom.Origin, linePoints(3, 1), 0)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 0 {
			t.Errorf("Degree(%d) = %d with δ=0", v, g.Degree(v))
		}
	}
	if g.Connected() {
		t.Error("graph with no edges and 4 vertices should be disconnected")
	}
}

func TestConnected(t *testing.T) {
	if !NewIn(nil, geom.Origin, nil, 1).Connected() {
		t.Error("single vertex should be connected")
	}
	if !NewIn(nil, geom.Origin, linePoints(5, 1), 1).Connected() {
		t.Error("unit-spaced line should be connected at δ=1")
	}
	if NewIn(nil, geom.Origin, linePoints(5, 1.01), 1).Connected() {
		t.Error("1.01-spaced line should be disconnected at δ=1")
	}
}

func TestShortestDists(t *testing.T) {
	g := NewIn(nil, geom.Origin, linePoints(4, 1), 1)
	dist := g.ShortestDists(0)
	for i, want := range []float64{0, 1, 2, 3, 4} {
		if math.Abs(dist[i]-want) > 1e-9 {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want)
		}
	}
}

func TestShortestDistsUnreachable(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(10, 0)}
	g := NewIn(nil, geom.Origin, pts, 1)
	dist := g.ShortestDists(0)
	if !math.IsInf(dist[2], 1) {
		t.Errorf("unreachable vertex dist = %v", dist[2])
	}
}

func TestEccentricity(t *testing.T) {
	g := NewIn(nil, geom.Origin, linePoints(4, 1), 1)
	if ecc := g.Eccentricity(0); math.Abs(ecc-4) > 1e-9 {
		t.Errorf("Eccentricity = %v, want 4", ecc)
	}
	// Shortcut edge: δ=2 allows 2-hops.
	g2 := NewIn(nil, geom.Origin, linePoints(4, 1), 2)
	if ecc := g2.Eccentricity(0); math.Abs(ecc-4) > 1e-9 {
		t.Errorf("Eccentricity with δ=2 = %v, want 4 (geodesic on a line)", ecc)
	}
}

func TestHopDists(t *testing.T) {
	g := NewIn(nil, geom.Origin, linePoints(4, 1), 2)
	hops := g.HopDists(0)
	// δ=2 on unit line: hop distance is ceil(i/2).
	want := []int{0, 1, 1, 2, 2}
	for i := range want {
		if hops[i] != want[i] {
			t.Errorf("hops[%d] = %d, want %d", i, hops[i], want[i])
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := NewIn(nil, geom.Origin, linePoints(4, 1), 1)
	path := g.ShortestPath(0, 4)
	want := []int{0, 1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// Unreachable.
	g2 := NewIn(nil, geom.Origin, []geom.Point{geom.Pt(100, 0)}, 1)
	if p := g2.ShortestPath(0, 1); p != nil {
		t.Errorf("unreachable path = %v", p)
	}
}

func TestConnectivityThreshold(t *testing.T) {
	// Unit line: threshold exactly 1.
	if ell := ConnectivityThresholdIn(nil, geom.Origin, linePoints(5, 1)); math.Abs(ell-1) > 1e-9 {
		t.Errorf("ℓ* = %v, want 1", ell)
	}
	// A gap of 3 dominates.
	pts := append(linePoints(3, 1), geom.Pt(6, 0), geom.Pt(7, 0))
	if ell := ConnectivityThresholdIn(nil, geom.Origin, pts); math.Abs(ell-3) > 1e-9 {
		t.Errorf("ℓ* = %v, want 3", ell)
	}
	// Empty set.
	if ell := ConnectivityThresholdIn(nil, geom.Origin, nil); ell != 0 {
		t.Errorf("ℓ* of empty = %v", ell)
	}
}

func TestConnectivityThresholdIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(30)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
		}
		ell := ConnectivityThresholdIn(nil, geom.Origin, pts)
		if !NewIn(nil, geom.Origin, pts, ell).Connected() {
			t.Fatalf("trial %d: graph at δ=ℓ* must be connected", trial)
		}
		if ell > 1e-6 && NewIn(nil, geom.Origin, pts, ell*0.999).Connected() {
			t.Fatalf("trial %d: graph just below ℓ* must be disconnected", trial)
		}
	}
}

func TestXiAt(t *testing.T) {
	// Unit line of 4 points: ξ₁ = 4.
	if xi := XiAtIn(nil, geom.Origin, linePoints(4, 1), 1); math.Abs(xi-4) > 1e-9 {
		t.Errorf("ξ = %v, want 4", xi)
	}
	// Disconnected at small ℓ.
	if xi := XiAtIn(nil, geom.Origin, linePoints(4, 1), 0.5); !math.IsInf(xi, 1) {
		t.Errorf("ξ below threshold = %v, want +Inf", xi)
	}
	if xi := XiAtIn(nil, geom.Origin, nil, 1); xi != 0 {
		t.Errorf("ξ of empty = %v", xi)
	}
}

func TestAdmissible(t *testing.T) {
	cases := []struct {
		ell, rho float64
		n        int
		want     bool
	}{
		{1, 4, 10, true},
		{1, 4, 3, false},  // ρ > nℓ
		{2, 1, 10, false}, // ρ < ℓ
		{0, 1, 10, false}, // ℓ = 0
		{1, 1, 1, true},
	}
	for _, c := range cases {
		if got := Admissible(c.ell, c.rho, c.n); got != c.want {
			t.Errorf("Admissible(%v,%v,%d) = %v, want %v", c.ell, c.rho, c.n, got, c.want)
		}
	}
}

// Property: Proposition 1 (ℓ* ≤ ρ* ≤ ξ ≤ nℓ*) on random clustered instances.
func TestProposition1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		pts := make([]geom.Point, n)
		// Random walk from the source keeps instances loosely connected so
		// the parameters stay in interesting ranges.
		cur := geom.Origin
		for i := range pts {
			cur = cur.Add(geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1))
			pts[i] = cur
		}
		if !CheckProposition1(geom.Origin, pts) {
			p := ComputeParamsIn(nil, geom.Origin, pts)
			t.Fatalf("trial %d: Proposition 1 violated: %+v", trial, p)
		}
	}
}

// Property: Lemma 6 — ξℓ ≤ 12·ρ*²/ℓ for any ℓ ≥ ℓ*, and hop count from the
// source is at most 1 + 2ξℓ/ℓ.
func TestLemma6Random(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(30)
		pts := make([]geom.Point, n)
		cur := geom.Origin
		for i := range pts {
			cur = cur.Add(geom.Pt(rng.Float64()*1.2-0.6, rng.Float64()*1.2-0.6))
			pts[i] = cur
		}
		p := ComputeParamsIn(nil, geom.Origin, pts)
		for _, ell := range []float64{p.Ell, p.Ell * 1.5, p.Ell * 3} {
			xi := XiAtIn(nil, geom.Origin, pts, ell)
			if math.IsInf(xi, 1) {
				t.Fatalf("trial %d: disconnected at ℓ ≥ ℓ*", trial)
			}
			if xi > 12*p.Rho*p.Rho/ell+1e-9 {
				t.Fatalf("trial %d: ξ=%v > 12ρ²/ℓ=%v", trial, xi, 12*p.Rho*p.Rho/ell)
			}
			g := NewIn(nil, geom.Origin, pts, ell)
			hops := g.HopDists(0)
			for v, h := range hops {
				if float64(h) > 1+2*xi/ell+1e-9 {
					t.Fatalf("trial %d: vertex %d hops=%d > 1+2ξ/ℓ=%v", trial, v, h, 1+2*xi/ell)
				}
			}
		}
	}
}

// Property: eccentricity is monotone non-increasing in ℓ (more edges can
// only shorten shortest paths).
func TestXiMonotoneInEll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(25)
		pts := make([]geom.Point, n)
		cur := geom.Origin
		for i := range pts {
			cur = cur.Add(geom.Pt(rng.Float64()*2-1, rng.Float64()*2-1))
			pts[i] = cur
		}
		ell := ConnectivityThresholdIn(nil, geom.Origin, pts)
		prev := math.Inf(1)
		for _, mult := range []float64{1, 1.2, 1.5, 2, 4} {
			xi := XiAtIn(nil, geom.Origin, pts, ell*mult)
			if xi > prev+1e-9 {
				t.Fatalf("trial %d: ξ increased from %v to %v as ℓ grew", trial, prev, xi)
			}
			prev = xi
		}
	}
}
