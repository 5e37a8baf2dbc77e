package dftp

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

func TestEstimateRhoAccuracy(t *testing.T) {
	// On instances large enough to leave the initial sampling unsaturated,
	// ρ̂ must satisfy ρ* ≤ ρ̂ ≤ c·ρ* for the doubling constant c = 4 (the
	// scan returns the first power-of-two width with an empty separator,
	// which is < 4ρ* since width/2 − ℓ > ρ* already empties it).
	cases := []*instance.Instance{
		instance.Line(40, 1),
		instance.GridSwarm(7, 1.2),
	}
	for _, in := range cases {
		p := in.ParamsIn(nil)
		tup := TupleForIn(nil, in)
		e := sim.NewEngine(sim.Config{Source: in.Source, Sleepers: in.Points})
		rep := &Report{}
		var est Estimate
		e.Spawn(sim.SourceID, func(pr *sim.Proc) {
			est = EstimateRho(pr, tup.Ell, rep)
		})
		if _, err := e.Run(); err != nil {
			t.Fatalf("%s: %v", in.Name, err)
		}
		if len(rep.Misses) > 0 {
			t.Fatalf("%s: %v", in.Name, rep.Misses)
		}
		if est.Covered {
			if math.Abs(est.Rho-p.Rho) > 1e-6 {
				t.Errorf("%s: covered estimate %v, want exact %v", in.Name, est.Rho, p.Rho)
			}
			continue
		}
		if est.Rho < p.Rho-1e-9 {
			t.Errorf("%s: ρ̂ = %v underestimates ρ* = %v", in.Name, est.Rho, p.Rho)
		}
		if est.Rho > 4*p.Rho+4*tup.Ell {
			t.Errorf("%s: ρ̂ = %v too far above ρ* = %v", in.Name, est.Rho, p.Rho)
		}
	}
}

func TestEstimateRhoCoveredSmallSwarm(t *testing.T) {
	// A tiny swarm saturates below 4ℓ: the estimate must be exact.
	in := instance.Line(3, 1)
	p := in.ParamsIn(nil)
	e := sim.NewEngine(sim.Config{Source: in.Source, Sleepers: in.Points})
	rep := &Report{}
	var est Estimate
	e.Spawn(sim.SourceID, func(pr *sim.Proc) {
		est = EstimateRho(pr, 1, rep)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !est.Covered {
		t.Fatal("3-robot swarm should be covered by the initial sampling")
	}
	if math.Abs(est.Rho-p.Rho) > 1e-9 {
		t.Errorf("ρ̂ = %v, want exact %v", est.Rho, p.Rho)
	}
}

func TestASeparatorAutoWakesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []*instance.Instance{
		instance.Line(30, 1),
		instance.RandomWalk(rng, 40, 0.9),
		instance.GridSwarm(5, 1.5),
		{Name: "tiny", Source: geom.Origin, Points: []geom.Point{geom.Pt(2, 1)}},
	}
	for _, in := range cases {
		res, _ := runAlg(t, ASeparatorAuto{}, in, 0)
		if !res.AllAwake {
			t.Errorf("%s: incomplete", in.Name)
		}
	}
}

func TestASeparatorAutoIgnoresRho(t *testing.T) {
	// Even a wildly wrong ρ in the tuple must not matter.
	in := instance.Line(25, 1)
	tup := TupleForIn(nil, in)
	tup.Rho = 1 // nonsense
	res, rep, err := Solve(ASeparatorAuto{}, in, tup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake || len(rep.Misses) > 0 {
		t.Fatalf("auto run failed: awake=%v misses=%v", res.AllAwake, rep.Misses)
	}
}

func TestASeparatorAutoOverheadBounded(t *testing.T) {
	// §5: the estimation overhead keeps the total within a constant factor
	// of plain ASeparator (which is told ρ).
	// The doubling scan can overshoot ρ* by up to 4x (the rounds then run on
	// a square up to 4x wider) plus the scan's own sweeps: a constant, but
	// not a small one. 6x covers it with margin on this family.
	in := instance.Line(48, 1)
	resAuto, _ := runAlg(t, ASeparatorAuto{}, in, 0)
	resBase, _ := runAlg(t, ASeparator{}, in, 0)
	if resAuto.Makespan > 6*resBase.Makespan {
		t.Errorf("auto makespan %v vs base %v: overhead above 6x",
			resAuto.Makespan, resBase.Makespan)
	}
}
