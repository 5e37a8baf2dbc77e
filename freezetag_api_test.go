package freezetag_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"freezetag"
)

func TestPublicAPISolve(t *testing.T) {
	swarm := freezetag.RandomWalk(rand.New(rand.NewSource(1)), 25, 0.9)
	tup := freezetag.TupleForIn(nil, swarm)
	for _, alg := range []freezetag.Algorithm{
		freezetag.ASeparator, freezetag.AGrid, freezetag.ASeparatorAuto,
	} {
		res, rep, err := freezetag.SolveIn(nil, alg, swarm, tup, 0)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.AllAwake {
			t.Fatalf("%s: incomplete wake-up", alg.Name())
		}
		if len(rep.Misses) > 0 {
			t.Fatalf("%s: schedule misses %v", alg.Name(), rep.Misses)
		}
	}
}

func TestPublicAPIInstanceRoundTrip(t *testing.T) {
	in := freezetag.NewInstance("custom", freezetag.Pt(0, 0),
		[]freezetag.Point{freezetag.Pt(1, 0), freezetag.Pt(2, 1)})
	path := filepath.Join(t.TempDir(), "i.json")
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := freezetag.LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 2 || got.Name != "custom" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPublicAPIParams(t *testing.T) {
	in := freezetag.Line(10, 2)
	p := freezetag.ParamsOfIn(nil, in)
	if p.Ell != 2 || p.Rho != 20 || p.Xi != 20 || p.N != 10 {
		t.Fatalf("params = %+v", p)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gens := []*freezetag.Instance{
		freezetag.Line(5, 1),
		freezetag.RandomWalk(rng, 5, 1),
		freezetag.UniformDisk(rng, 5, 3),
		freezetag.GridSwarm(3, 1),
		freezetag.ClusterChain(rng, 2, 3, 4, 0.5),
	}
	for _, in := range gens {
		if in.N() == 0 {
			t.Errorf("%s: empty instance", in.Name)
		}
	}
}

func TestPublicAPIBudget(t *testing.T) {
	in := freezetag.Line(10, 1)
	tup := freezetag.TupleForIn(nil, in)
	// Starve the run: it must report honestly rather than succeed.
	res, _, err := freezetag.SolveIn(nil, freezetag.AGrid, in, tup, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllAwake {
		t.Error("starved run should not complete")
	}
	if len(res.Violations) == 0 {
		t.Error("budget violations should be reported")
	}
	if res.MaxEnergy > 0.5+1e-9 {
		t.Errorf("budget exceeded: %v", res.MaxEnergy)
	}
}

func TestPublicAPISolvePortfolio(t *testing.T) {
	swarm := freezetag.RandomWalk(rand.New(rand.NewSource(3)), 24, 0.9)
	tup := freezetag.TupleForIn(nil, swarm)
	obj, err := freezetag.ParseObjective("min-makespan")
	if err != nil {
		t.Fatal(err)
	}
	p := freezetag.Portfolio{
		Algorithms: []freezetag.Algorithm{freezetag.ASeparator, freezetag.AGrid},
		Objective:  obj,
	}
	res, err := freezetag.SolvePortfolioIn(nil, p, swarm, tup, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Res.AllAwake {
		t.Fatal("portfolio winner left robots asleep")
	}
	if len(res.Racers) != 2 || res.Winner < 0 || res.Winner > 1 {
		t.Fatalf("racer stats: %+v", res.Racers)
	}
	// The winner must be at least as good as every completed racer.
	for _, rr := range res.Racers {
		if rr.Status == "completed" && rr.Makespan < res.Res.Makespan {
			t.Fatalf("racer %+v beats the declared winner", rr)
		}
	}
}

func TestPublicAPIHashRequest(t *testing.T) {
	in := freezetag.Line(10, 1)
	tup := freezetag.TupleForIn(nil, in)
	h1 := freezetag.HashRequestIn(nil, freezetag.AGrid, in, tup, 0)
	h2 := freezetag.HashRequestIn(nil, freezetag.AGrid, in, tup, 0)
	if h1 != h2 {
		t.Fatalf("identical requests hashed differently: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not sha256 hex", h1)
	}
	if h1 == freezetag.HashRequestIn(nil, freezetag.AWave, in, tup, 0) {
		t.Fatal("different algorithms share a request hash")
	}
	// Unconstrained budgets (≤ 0) are one key.
	if h1 != freezetag.HashRequestIn(nil, freezetag.AGrid, in, tup, -1) {
		t.Fatal("budget 0 and -1 should share a request hash")
	}
}

func TestPublicAPIHeterogeneous(t *testing.T) {
	swarm, err := freezetag.Family("line+speedband:0.5", 10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(swarm.Profiles) != 10 {
		t.Fatalf("speedband family carries %d profiles, want 10", len(swarm.Profiles))
	}
	res, rep, err := freezetag.SolveIn(nil, freezetag.AGrid, swarm, freezetag.TupleForIn(nil, swarm), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake || len(rep.Misses) > 0 {
		t.Fatalf("heterogeneous solve incomplete: awake=%v misses=%v", res.AllAwake, rep.Misses)
	}

	// Explicit profiles change the request hash; plain instances keep theirs.
	plain := freezetag.Line(10, 1)
	tup := freezetag.TupleForIn(nil, plain)
	h1 := freezetag.HashRequestIn(nil, freezetag.AGrid, plain, tup, 0)
	prof := freezetag.NewInstance(plain.Name, plain.Source, plain.Points)
	prof.Profiles = freezetag.UniformProfiles(10, freezetag.Profile{Speed: 0.5})
	if h2 := freezetag.HashRequestIn(nil, freezetag.AGrid, prof, tup, 0); h2 == h1 {
		t.Fatal("profiles did not change the request hash")
	}
}
