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

// connected reports whether the δ-ball graph of {origin} ∪ pts is
// connected: ξ is finite exactly then.
func connected(pts []geom.Point, delta float64) bool {
	return !math.IsInf(XiAtIn(nil, geom.Origin, pts, delta), 1)
}

func TestZeroDelta(t *testing.T) {
	if connected(linePoints(3, 1), 0) {
		t.Error("graph with no edges and 4 vertices should be disconnected")
	}
}

func TestConnected(t *testing.T) {
	if !connected(nil, 1) {
		t.Error("single vertex should be connected")
	}
	if !connected(linePoints(5, 1), 1) {
		t.Error("unit-spaced line should be connected at δ=1")
	}
	if connected(linePoints(5, 1.01), 1) {
		t.Error("1.01-spaced line should be disconnected at δ=1")
	}
}

// On a unit line at δ=1 the shortest path to vertex i runs through every
// vertex before it, so the eccentricity of the first i points is i.
func TestShortestDists(t *testing.T) {
	for i := 0; i <= 4; i++ {
		if got := XiAtIn(nil, geom.Origin, linePoints(i, 1), 1); math.Abs(got-float64(i)) > 1e-9 {
			t.Errorf("dist to vertex %d = %v, want %d", i, got, i)
		}
	}
}

func TestShortestDistsUnreachable(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(10, 0)}
	if xi := XiAtIn(nil, geom.Origin, pts[:1], 1); xi != 1 {
		t.Errorf("reachable vertex dist = %v, want 1", xi)
	}
	if xi := XiAtIn(nil, geom.Origin, pts, 1); !math.IsInf(xi, 1) {
		t.Errorf("unreachable vertex dist = %v", xi)
	}
}

func TestEccentricity(t *testing.T) {
	if ecc := XiAtIn(nil, geom.Origin, linePoints(4, 1), 1); math.Abs(ecc-4) > 1e-9 {
		t.Errorf("Eccentricity = %v, want 4", ecc)
	}
	// Shortcut edge: δ=2 allows 2-hops.
	if ecc := XiAtIn(nil, geom.Origin, linePoints(4, 1), 2); math.Abs(ecc-4) > 1e-9 {
		t.Errorf("Eccentricity with δ=2 = %v, want 4 (geodesic on a line)", ecc)
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
		if !connected(pts, ell) {
			t.Fatalf("trial %d: graph at δ=ℓ* must be connected", trial)
		}
		if ell > 1e-6 && connected(pts, ell*0.999) {
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
	// A swarm stacked on its source: ℓ* = 0, and every robot is at path
	// distance 0, so ξ = 0 ≤ n·ℓ* (Proposition 1), not +Inf.
	o := geom.Pt(3, -2)
	if p := ComputeParamsIn(nil, o, []geom.Point{o, o}); p.Ell != 0 || p.Xi != 0 {
		t.Errorf("stacked swarm params = %+v, want ℓ* = ξ = 0", p)
	}
	if xi := XiAtIn(geom.L1, o, []geom.Point{o, o}, 0); xi != 0 {
		t.Errorf("ξ of stacked swarm at δ=0 = %v, want 0", xi)
	}
	if xi := XiAtIn(nil, o, []geom.Point{o, geom.Pt(3, -1)}, 0); !math.IsInf(xi, 1) {
		t.Errorf("ξ at δ=0 with a robot off the source = %v, want +Inf", xi)
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
			for v, h := range hopDists(nil, vertices(geom.Origin, pts), ell) {
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
