package instance

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
)

func TestRandomWalkConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := RandomWalk(rng, 50, 0.8)
	if in.N() != 50 {
		t.Fatalf("N = %d", in.N())
	}
	p := in.ParamsIn(nil)
	if p.Ell > 0.8+1e-9 {
		t.Errorf("ℓ* = %v, want ≤ step 0.8", p.Ell)
	}
}

func TestUniformDiskInRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := UniformDisk(rng, 200, 5)
	for _, p := range in.Points {
		if p.Norm() > 5+1e-9 {
			t.Fatalf("point %v outside radius", p)
		}
	}
	if par := in.ParamsIn(nil); par.Rho > 5+1e-9 {
		t.Errorf("ρ* = %v", par.Rho)
	}
}

func TestClusterChainStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := ClusterChain(rng, 4, 10, 6, 0.5)
	if in.N() != 40 {
		t.Fatalf("N = %d", in.N())
	}
	p := in.ParamsIn(nil)
	// Gap between clusters is ≥ 6−2·0.5 = 5; ℓ* must be in [4, 6].
	if p.Ell < 4 || p.Ell > 6+1e-9 {
		t.Errorf("ℓ* = %v, want ∈ [4, 6]", p.Ell)
	}
}

func TestGridSwarm(t *testing.T) {
	in := GridSwarm(5, 2)
	if in.N() != 25 {
		t.Fatalf("N = %d", in.N())
	}
	p := in.ParamsIn(nil)
	// Source at origin, first robot at (2,2): ℓ* = 2√2; grid spacing 2.
	if math.Abs(p.Ell-2*math.Sqrt2) > 1e-9 {
		t.Errorf("ℓ* = %v, want 2√2", p.Ell)
	}
}

func TestLineParams(t *testing.T) {
	in := Line(10, 1.5)
	p := in.ParamsIn(nil)
	if math.Abs(p.Ell-1.5) > 1e-9 {
		t.Errorf("ℓ* = %v", p.Ell)
	}
	if math.Abs(p.Rho-15) > 1e-9 {
		t.Errorf("ρ* = %v", p.Rho)
	}
	if math.Abs(p.Xi-15) > 1e-9 {
		t.Errorf("ξ = %v", p.Xi)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := RandomWalk(rng, 20, 1)
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != in.Name || got.N() != in.N() {
		t.Fatalf("round trip mismatch: %v vs %v", got, in)
	}
	for i := range in.Points {
		if !got.Points[i].Eq(in.Points[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestCentersCLemma12(t *testing.T) {
	// Lemma 12: |C| ≥ 1 + ρ²/ℓ².
	for _, c := range []struct{ rho, ell float64 }{
		{8, 2}, {16, 2}, {32, 4}, {10, 1},
	} {
		centers := CentersC(c.rho, c.ell)
		want := 1 + c.rho*c.rho/(c.ell*c.ell)
		if float64(len(centers)) < want {
			t.Errorf("|C|(ρ=%v,ℓ=%v) = %d < %v", c.rho, c.ell, len(centers), want)
		}
		for _, p := range centers {
			if p.Norm() > c.rho-c.ell/4+1e-9 {
				t.Errorf("center %v outside allowed disk", p)
			}
		}
	}
}

func TestConnectedCentersConnected(t *testing.T) {
	rho, ell := 12.0, 2.0
	m := 40
	centers := ConnectedCenters(rho, ell, m)
	if len(centers) != m {
		t.Fatalf("got %d centers, want %d", len(centers), m)
	}
	// Connectivity at grid spacing ℓ/2 together with the origin.
	if math.IsInf(diskgraph.XiAtIn(nil, geom.Origin, centers, ell/2+1e-9), 1) {
		t.Error("C_m ∪ {origin} not connected at ℓ/2 adjacency")
	}
	// Must contain the mandatory column.
	colLen := int(rho / ell)
	have := map[geom.Point]bool{}
	for _, p := range centers {
		have[p] = true
	}
	for j := 1; j <= colLen; j++ {
		p := geom.Pt(0, float64(j)*ell/2)
		if !have[p] {
			t.Errorf("missing mandatory column point %v", p)
		}
	}
}

func TestDiskGridStaticValid(t *testing.T) {
	rho, ell := 10.0, 2.0
	in := DiskGridStatic(rho, ell, 60)
	p := in.ParamsIn(nil)
	if p.Ell > ell+1e-9 {
		t.Errorf("ℓ* = %v exceeds ℓ = %v (Lemma 13 violated)", p.Ell, ell)
	}
	if p.Rho > rho+1e-9 {
		t.Errorf("ρ* = %v exceeds ρ = %v", p.Rho, rho)
	}
	// Each robot sits in its disk: distance from some center ≤ ℓ/4.
	centers := CentersC(rho, ell)
	for _, pt := range in.Points {
		ok := false
		for _, c := range centers {
			if c.Within(pt, ell/4) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("robot %v not inside any disk D_c", pt)
		}
	}
}

func TestBuildPathBasic(t *testing.T) {
	spec := PathSpec{Ell: 2, Rho: 20, B: 5, Xi: 30}
	in, err := BuildPath(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := in.ParamsIn(nil)
	if p.Ell > spec.Ell+1e-9 {
		t.Errorf("ℓ* = %v exceeds ℓ = %v", p.Ell, spec.Ell)
	}
	if math.Abs(p.Rho-spec.Rho) > spec.Ell {
		t.Errorf("ρ* = %v, want ≈ %v", p.Rho, spec.Rho)
	}
	// ξ at the prescribed ℓ should be within a section length of ξ.
	xi := diskgraph.XiAtIn(nil, in.Source, in.Points, spec.Ell)
	if math.IsInf(xi, 1) {
		t.Fatal("path instance disconnected at ℓ")
	}
	if xi < spec.Rho-1e-9 {
		t.Errorf("ξℓ = %v below ρ", xi)
	}
	if xi > spec.Xi*1.6+spec.Ell {
		t.Errorf("ξℓ = %v far above prescribed %v", xi, spec.Xi)
	}
}

func TestBuildPathXiGrowsWithSpec(t *testing.T) {
	// Larger prescribed ξ must give larger realized ξℓ.
	prev := 0.0
	for _, xi := range []float64{50, 100, 180} {
		in, err := BuildPath(PathSpec{Ell: 2, Rho: 40, B: 3, Xi: xi})
		if err != nil {
			t.Fatal(err)
		}
		got := diskgraph.XiAtIn(nil, in.Source, in.Points, 2)
		if math.IsInf(got, 1) {
			t.Fatalf("ξ=%v: disconnected", xi)
		}
		if got <= prev {
			t.Errorf("ξℓ did not grow: %v after %v", got, prev)
		}
		prev = got
	}
}

func TestBuildPathNoShortcuts(t *testing.T) {
	// The B-separation property: points on different horizontal runs are at
	// least B+1−2ℓ apart vertically unless connected along the path. Check
	// that the realized ξℓ is at least ~ the path length, i.e. the ℓ-disk
	// graph has no vertical shortcut collapsing the path.
	spec := PathSpec{Ell: 1, Rho: 20, B: 4, Xi: 25}
	in, err := BuildPath(spec)
	if err != nil {
		t.Fatal(err)
	}
	xi := diskgraph.XiAtIn(nil, in.Source, in.Points, spec.Ell)
	if xi < 0.5*spec.Xi {
		t.Errorf("ξℓ = %v collapsed below half the prescribed %v: shortcut exists", xi, spec.Xi)
	}
}

func TestBuildPathRejectsBadSpecs(t *testing.T) {
	if _, err := BuildPath(PathSpec{Ell: 2, Rho: 20, B: 1, Xi: 30}); err == nil {
		t.Error("B ≤ ℓ should be rejected")
	}
	if _, err := BuildPath(PathSpec{Ell: 2, Rho: 20, B: 5, Xi: 10}); err == nil {
		t.Error("ξ < ρ should be rejected")
	}
	if _, err := BuildPath(PathSpec{Ell: 2, Rho: 20, B: 5, Xi: 120}); err == nil {
		t.Error("ξ above the Eq. 15 range should be rejected")
	}
	if _, err := BuildPath(PathSpec{Ell: 0, Rho: 20, B: 5, Xi: 30}); err == nil {
		t.Error("ℓ = 0 should be rejected")
	}
}
