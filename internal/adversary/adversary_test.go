package adversary

import (
	"math"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

func TestTrackerMarkAndQuery(t *testing.T) {
	region := geom.RectWH(geom.Pt(-5, -5), 10, 10)
	tr := NewTrackerIn(nil, region, 0.25)
	d := geom.DiskAt(geom.Origin, 2)
	if f := tr.CoveredFraction(d); f != 0 {
		t.Fatalf("initial coverage = %v", f)
	}
	// One snapshot at the center covers the radius-1 core.
	tr.Mark(geom.Origin, 1)
	f := tr.CoveredFraction(d)
	if f <= 0.15 || f >= 0.5 {
		// Area ratio is (1/2)² = 0.25.
		t.Errorf("coverage after one center snapshot = %v, want ≈ 0.25", f)
	}
	pos, _, covered := tr.LastCovered(d)
	if covered {
		t.Error("disk should not be fully covered")
	}
	if pos.Dist(geom.Origin) <= 1 {
		t.Errorf("uncovered pick %v lies in the covered core", pos)
	}
	if !d.Contains(pos) {
		t.Errorf("uncovered pick %v outside the disk", pos)
	}
}

func TestTrackerFullCoverage(t *testing.T) {
	region := geom.RectWH(geom.Pt(-3, -3), 6, 6)
	tr := NewTrackerIn(nil, region, 0.2)
	d := geom.DiskAt(geom.Origin, 1.5)
	// Cover everything with a dense sweep; later snapshots must win the
	// last-covered query.
	var lastP geom.Point
	tm := 0.0
	for x := -2.5; x <= 2.5; x += 0.5 {
		for y := -2.5; y <= 2.5; y += 0.5 {
			tm++
			tr.Mark(geom.Pt(x, y), tm)
			lastP = geom.Pt(x, y)
		}
	}
	_ = lastP
	pos, when, covered := tr.LastCovered(d)
	if !covered {
		t.Fatal("disk should be covered")
	}
	if when <= 0 {
		t.Errorf("cover time = %v", when)
	}
	if !d.Contains(pos) {
		t.Errorf("last-covered %v outside disk", pos)
	}
	if f := tr.CoveredFraction(d); f != 1 {
		t.Errorf("fraction = %v, want 1", f)
	}
}

func TestTheorem3BelowThreshold(t *testing.T) {
	ell := 6.0
	threshold := math.Pi * (ell*ell - 1) / 2 // ≈ 55
	res := Theorem3In(nil, ell, threshold*0.3)
	if res.Found {
		t.Errorf("budget %.3g (0.3×threshold %.3g) should not find the adversarial robot",
			res.Budget, threshold)
	}
}

func TestTheorem3AmpleBudget(t *testing.T) {
	ell := 6.0
	// The spiral needs ~πℓ²/pitch plus slack; give a generous multiple.
	res := Theorem3In(nil, ell, 12*math.Pi*ell*ell)
	if !res.Found {
		t.Errorf("ample budget should find the robot (energy %v)", res.Energy)
	}
}

func TestTheorem3Monotone(t *testing.T) {
	// Found-status must be monotone in budget across a sweep.
	ell := 5.0
	prev := false
	for _, mult := range []float64{0.2, 0.5, 1, 3, 8, 15} {
		res := Theorem3In(nil, ell, mult*math.Pi*ell*ell/2)
		if prev && !res.Found {
			t.Errorf("found at smaller budget but not at %v×", mult)
		}
		if res.Found {
			prev = true
		}
	}
	if !prev {
		t.Error("never found even at 15× the threshold")
	}
}

func TestTheorem2HardensInstance(t *testing.T) {
	// A small adversarial run: the hardened instance must still satisfy the
	// construction invariants (ℓ-connected, radius ≤ ρ) and force a
	// nontrivial makespan.
	rho, ell := 8.0, 2.0
	out, err := Theorem2(dftp.ASeparator{}, rho, ell, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := out.Instance.ParamsIn(nil)
	if p.Ell > ell+1e-9 {
		t.Errorf("hardened ℓ* = %v exceeds ℓ = %v (Lemma 13 broken)", p.Ell, ell)
	}
	if p.Rho > rho+1e-9 {
		t.Errorf("hardened ρ* = %v exceeds ρ", p.Rho)
	}
	if out.Makespan < rho {
		t.Errorf("makespan %v below ρ = %v", out.Makespan, rho)
	}
}

func TestTheorem2HarderThanCenters(t *testing.T) {
	// The adversarial placement should not be easier than the naive
	// center placement by more than noise.
	rho, ell := 8.0, 2.0
	adv, err := Theorem2(dftp.ASeparator{}, rho, ell, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := instance.CentersOnly(rho, ell, 30)
	tup := dftp.Tuple{Ell: ell, Rho: rho, N: base.N()}
	res, _, err := dftp.Solve(dftp.ASeparator{}, base, tup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("baseline run incomplete")
	}
	if adv.Makespan < 0.5*res.Makespan {
		t.Errorf("adversarial makespan %v far below center-placement %v",
			adv.Makespan, res.Makespan)
	}
}
