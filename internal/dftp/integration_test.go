package dftp

import (
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// Property: every algorithm's makespan respects the travel floor ρ* (the
// farthest robot cannot be woken before a robot has traveled to it), and
// every robot's wake time respects its own distance floor.
func TestMakespanTravelFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	algs := []Algorithm{ASeparator{}, ASeparatorAuto{}, AGrid{}}
	for trial := 0; trial < 4; trial++ {
		in := instance.RandomWalk(rng, 15+rng.Intn(25), 0.9)
		p := in.ParamsIn(nil)
		for _, alg := range algs {
			tup := TupleForIn(nil, in)
			e := sim.NewEngine(sim.Config{Source: in.Source, Sleepers: in.Points})
			rep := alg.Install(e, tup)
			res, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if !res.AllAwake || len(rep.Misses) > 0 {
				t.Fatalf("%s trial %d: awake=%v misses=%d", alg.Name(), trial, res.AllAwake, len(rep.Misses))
			}
			if res.Makespan < p.Rho-1e-9 {
				t.Errorf("%s: makespan %v below ρ* = %v", alg.Name(), res.Makespan, p.Rho)
			}
			for i := 1; i <= in.N(); i++ {
				r := e.Robot(i)
				if r.WakeTime() < r.InitPos().Dist(in.Source)-1e-9 {
					t.Errorf("%s: robot %d woke at %v, below distance %v",
						alg.Name(), i, r.WakeTime(), r.InitPos().Dist(in.Source))
				}
			}
		}
	}
}

func TestASeparatorOnDiskGrid(t *testing.T) {
	in := instance.DiskGridStatic(10, 2, 50)
	runAlg(t, ASeparator{}, in, 0)
}

func TestASeparatorOnPath(t *testing.T) {
	in, err := instance.BuildPath(instance.PathSpec{Ell: 2, Rho: 30, B: 4, Xi: 60})
	if err != nil {
		t.Fatal(err)
	}
	runAlg(t, ASeparator{}, in, 0)
}

func TestAGridOnGridSwarm(t *testing.T) {
	in := instance.GridSwarm(6, 1.5)
	runAlg(t, AGrid{}, in, 0)
}

func TestAGridOnUniformDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	in := instance.UniformDisk(rng, 60, 6)
	runAlg(t, AGrid{}, in, 0)
}

func TestAGridOnPath(t *testing.T) {
	in, err := instance.BuildPath(instance.PathSpec{Ell: 2, Rho: 30, B: 4, Xi: 50})
	if err != nil {
		t.Fatal(err)
	}
	runAlg(t, AGrid{}, in, 0)
}

// ASeparator with a generous (but finite) budget must not trip violations:
// its per-robot travel is O(ρ + ℓ²log(ρ/ℓ)) with moderate constants.
func TestASeparatorWithinGenerousBudget(t *testing.T) {
	in := instance.Line(32, 1)
	tup := TupleForIn(nil, in)
	budget := 100 * (tup.Rho + tup.Ell*tup.Ell*8)
	res, _ := runAlg(t, ASeparator{}, in, budget)
	if res.MaxEnergy > budget {
		t.Errorf("energy %v exceeded budget %v", res.MaxEnergy, budget)
	}
}

// Seeds sweep: the full pipeline on many random instances, all algorithms.
func TestSeedSweepAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	algs := []Algorithm{ASeparator{}, ASeparatorAuto{}, AGrid{}}
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := instance.RandomWalk(rng, 10+rng.Intn(40), 0.7+rng.Float64()*0.3)
		for _, alg := range algs {
			res, _ := runAlg(t, alg, in, 0)
			if res.Awakened != in.N() {
				t.Fatalf("seed %d %s: woke %d/%d", seed, alg.Name(), res.Awakened, in.N())
			}
		}
	}
}

// Two robots at the same position must both be woken (co-located targets).
func TestCoLocatedSleepers(t *testing.T) {
	pts := []geom.Point{geom.Pt(2, 1), geom.Pt(2, 1), geom.Pt(3, 1)}
	in := &instance.Instance{Name: "dup", Source: geom.Origin, Points: pts}
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}} {
		runAlg(t, alg, in, 0)
	}
}

// An empty instance (n = 0) terminates immediately for every algorithm.
func TestEmptyInstance(t *testing.T) {
	in := &instance.Instance{Name: "empty", Source: geom.Origin}
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}, AWave{}} {
		tup := Tuple{Ell: 1, Rho: 1, N: 0}
		res, _, err := Solve(alg, in, tup, 0)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.AllAwake {
			t.Fatalf("%s: empty instance not 'all awake'", alg.Name())
		}
	}
}

// A cluster far from the source but within ρ: ASeparator must find it even
// though large parts of the square are empty (separator pruning at work).
func TestASeparatorSparseFarCluster(t *testing.T) {
	var pts []geom.Point
	// Bridge of robots leading to a far cluster (keeps ℓ* small).
	for i := 1; i <= 20; i++ {
		pts = append(pts, geom.Pt(float64(i), 0))
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.Pt(20+rng.Float64(), rng.Float64()))
	}
	in := &instance.Instance{Name: "farcluster", Source: geom.Origin, Points: pts}
	runAlg(t, ASeparator{}, in, 0)
}

// Report.Rounds grows with instance extent for AGrid (the wave advances one
// cell per round).
func TestAGridRoundsGrowWithExtent(t *testing.T) {
	_, repSmall := runAlg(t, AGrid{}, instance.Line(8, 1), 0)
	_, repLarge := runAlg(t, AGrid{}, instance.Line(40, 1), 0)
	if repLarge.Rounds <= repSmall.Rounds {
		t.Errorf("rounds: small=%d large=%d — wave not advancing",
			repSmall.Rounds, repLarge.Rounds)
	}
}

// A budget too small for the algorithm is a reported outcome, never a
// crash. A team leader that runs dry halts mid-move and strands its team
// while the algorithm keeps the roster, so the next escort finds members
// away from their leader; every algorithm on every family shape, at
// budgets from hopeless to ample, must finish with either everyone awake
// or the violation that explains who is not. Seed 3 holds the repros of
// the stranded escort: ASeparatorAuto on walk at param 0.9 and budget 30,
// and ASeparator at param 1 on walk at budget 50 and on walk+capband:40 at
// budget 80.
func TestBudgetSweepNeverCrashes(t *testing.T) {
	type shape struct {
		family string
		param  float64
	}
	var shapes []shape
	for _, f := range append(instance.FamilyNames(), "walk+capband:40") {
		shapes = append(shapes, shape{f, 0.9})
	}
	shapes = append(shapes, shape{"walk", 1}, shape{"walk+capband:40", 1})
	for _, alg := range []Algorithm{AGrid{}, ASeparator{}, ASeparatorAuto{}, AWave{}} {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 3; seed++ {
				inst, err := instance.Family(sh.family, 32, sh.param, seed)
				if err != nil {
					t.Fatal(err)
				}
				tup := TupleForIn(nil, inst)
				for _, budget := range []float64{10, 20, 30, 50, 80, 120, 200} {
					res, _, err := Solve(alg, inst, tup, budget)
					if err != nil {
						t.Fatalf("%s on %s seed %d budget %g: %v", alg.Name(), inst.Name, seed, budget, err)
					}
					if !res.AllAwake && len(res.Violations) == 0 {
						t.Errorf("%s on %s seed %d budget %g: %d of %d awake with no budget violation",
							alg.Name(), inst.Name, seed, budget, res.Awakened, inst.N())
					}
				}
			}
		}
	}
}
