package dftp

import (
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// runAlg solves inst with alg and asserts complete wake-up with no
// engine errors, no deadline misses, and no budget violations.
func runAlg(t *testing.T, alg Algorithm, inst *instance.Instance, budget float64) (sim.Result, *Report) {
	t.Helper()
	tup := TupleForIn(nil, inst)
	res, rep, err := Solve(alg, inst, tup, budget)
	if err != nil {
		t.Fatalf("%s on %s: %v", alg.Name(), inst.Name, err)
	}
	if !res.AllAwake {
		t.Fatalf("%s on %s: %d of %d robots still asleep (makespan %.4g)",
			alg.Name(), inst.Name, inst.N()-res.Awakened, inst.N(), res.Makespan)
	}
	if len(rep.Misses) > 0 {
		t.Fatalf("%s on %s: %d schedule misses, first: %s",
			alg.Name(), inst.Name, len(rep.Misses), rep.Misses[0])
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%s on %s: budget violations: %v", alg.Name(), inst.Name, res.Violations)
	}
	return res, rep
}

func TestTuple(t *testing.T) {
	tu := Tuple{Ell: 2.5, Rho: 10, N: 10}
	if tu.L() != 3 {
		t.Errorf("L = %d, want 3", tu.L())
	}
	if !tu.Admissible() {
		t.Error("tuple should be admissible")
	}
	if (Tuple{Ell: 2, Rho: 30, N: 10}).Admissible() {
		t.Error("ρ > nℓ should be inadmissible")
	}
}

func TestTupleFor(t *testing.T) {
	in := instance.Line(10, 1.5)
	tup := TupleForIn(nil, in)
	if tup.Ell != 2 || tup.Rho != 15 || tup.N != 10 {
		t.Errorf("tuple = %+v", tup)
	}
	if !tup.Admissible() {
		t.Error("derived tuple should be admissible")
	}
}

func TestAssignSubTotal(t *testing.T) {
	s := geom.Sq(geom.Pt(0, 0), 8)
	subs := s.SubSquares()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		idx := assignSub(p, subs)
		if !subs[idx].Contains(p) {
			t.Fatalf("point %v assigned to sub %d not containing it", p, idx)
		}
	}
	// Center belongs to exactly one.
	if idx := assignSub(geom.Pt(0, 0), subs); idx != 2 {
		// strict containment: (0,0) is min-corner of quadrant 2 (upper-right)
		t.Errorf("center assigned to %d", idx)
	}
}

// --- ASeparator correctness --------------------------------------------------

func TestASeparatorLine(t *testing.T) {
	in := instance.Line(20, 1)
	res, _ := runAlg(t, ASeparator{}, in, 0)
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestASeparatorRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		in := instance.RandomWalk(rng, 20+rng.Intn(40), 0.9)
		runAlg(t, ASeparator{}, in, 0)
	}
}

func TestASeparatorUniformDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := instance.UniformDisk(rng, 60, 6)
	runAlg(t, ASeparator{}, in, 0)
}

func TestASeparatorClusterChain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := instance.ClusterChain(rng, 3, 8, 5, 0.8)
	runAlg(t, ASeparator{}, in, 0)
}

func TestASeparatorGrid(t *testing.T) {
	in := instance.GridSwarm(5, 1.2)
	runAlg(t, ASeparator{}, in, 0)
}

func TestASeparatorSingleRobot(t *testing.T) {
	in := &instance.Instance{Name: "one", Source: geom.Origin,
		Points: []geom.Point{geom.Pt(3, 1)}}
	res, _ := runAlg(t, ASeparator{}, in, 0)
	if res.Makespan <= 0 {
		t.Error("zero makespan for singleton")
	}
}

func TestASeparatorDenseCluster(t *testing.T) {
	// Everything within the radius-1 ball: terminal path, wake in O(1).
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 30)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*0.9, rng.Float64()*0.9)
	}
	in := &instance.Instance{Name: "dense", Source: geom.Origin, Points: pts}
	res, _ := runAlg(t, ASeparator{}, in, 0)
	if res.Makespan > 50 {
		t.Errorf("makespan %v too large for a unit cluster", res.Makespan)
	}
}

// --- AGrid correctness --------------------------------------------------------

func TestAGridLine(t *testing.T) {
	in := instance.Line(15, 1)
	res, _ := runAlg(t, AGrid{}, in, 0)
	tup := TupleForIn(nil, in)
	// Theorem 4 energy bound: O(ℓ²) per robot. Constant from the
	// implementation: ≤ 8 slots × (sweep + travel + wake) ≈ 10·(R²+20R).
	r := 2 * tup.Ell
	if bound := 10 * (r*r + 20*r); res.MaxEnergy > bound {
		t.Errorf("MaxEnergy %.4g exceeds O(ℓ²) bound %.4g", res.MaxEnergy, bound)
	}
}

func TestAGridRandomWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 3; trial++ {
		in := instance.RandomWalk(rng, 25, 0.8)
		runAlg(t, AGrid{}, in, 0)
	}
}

func TestAGridClusterChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := instance.ClusterChain(rng, 3, 6, 4, 0.6)
	runAlg(t, AGrid{}, in, 0)
}

func TestAGridWithBudget(t *testing.T) {
	// AGrid must succeed under an O(ℓ²) per-robot budget (Theorem 4).
	in := instance.Line(12, 1)
	tup := TupleForIn(nil, in)
	r := 2 * tup.Ell
	budget := 10 * (r*r + 20*r)
	res, _ := runAlg(t, AGrid{}, in, budget)
	if res.MaxEnergy > budget {
		t.Errorf("energy %v over budget %v", res.MaxEnergy, budget)
	}
}

func TestAGridSingleCell(t *testing.T) {
	// Everything in the source's own cell: round 0 suffices.
	pts := []geom.Point{geom.Pt(0.4, 0.3), geom.Pt(-0.5, 0.2), geom.Pt(0.1, -0.6)}
	in := &instance.Instance{Name: "cell", Source: geom.Origin, Points: pts}
	runAlg(t, AGrid{}, in, 0)
}

// --- AWave correctness ---------------------------------------------------------

func TestAWaveSingleSquare(t *testing.T) {
	// ℓ = 1 ⇒ wave ℓ = 4, R = 256: a radius-20 swarm fits in the source's
	// square, so AWave reduces to one ASeparator execution.
	rng := rand.New(rand.NewSource(8))
	in := instance.RandomWalk(rng, 40, 0.9)
	res, _ := runAlg(t, AWave{}, in, 0)
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestAWaveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := instance.UniformDisk(rng, 50, 5)
	runAlg(t, AWave{}, in, 0)
}

// --- Cross-algorithm agreement -------------------------------------------------

func TestAllAlgorithmsAgreeOnWakeup(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := instance.RandomWalk(rng, 30, 0.85)
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}, AWave{}} {
		res, _ := runAlg(t, alg, in, 0)
		if res.Awakened != in.N() {
			t.Errorf("%s woke %d of %d", alg.Name(), res.Awakened, in.N())
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := instance.RandomWalk(rng, 25, 0.9)
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}} {
		r1, _ := runAlg(t, alg, in, 0)
		r2, _ := runAlg(t, alg, in, 0)
		if r1.Makespan != r2.Makespan || r1.TotalEnergy != r2.TotalEnergy {
			t.Errorf("%s nondeterministic: %v/%v vs %v/%v",
				alg.Name(), r1.Makespan, r1.TotalEnergy, r2.Makespan, r2.TotalEnergy)
		}
	}
}
