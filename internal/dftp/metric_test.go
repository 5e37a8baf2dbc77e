package dftp

import (
	"context"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// Every algorithm must solve end-to-end under every built-in metric: all
// robots awake, and no robot woken before anything travelling at unit metric
// speed could have reached it (the trivial per-robot lower bound, which is
// metric-dependent and therefore catches a simulator measuring in the wrong
// norm).
func TestAlgorithmsSolveUnderAllMetrics(t *testing.T) {
	metrics := []geom.Metric{geom.L1, geom.L2, geom.LInf}
	algs := []Algorithm{ASeparator{}, AGrid{}, AWave{}, ASeparatorAuto{}}
	instances := []*instance.Instance{
		instance.Line(12, 1),
		instance.RandomWalk(rand.New(rand.NewSource(4)), 16, 0.9),
		instance.ClusterChain(rand.New(rand.NewSource(9)), 2, 6, 4, 1),
	}
	for _, m := range metrics {
		for _, in := range instances {
			tup := TupleForIn(m, in)
			for _, alg := range algs {
				res, _, err := solveEngine(t, m, alg, in, tup)
				if err != nil {
					t.Errorf("%s on %s under %s: %v", alg.Name(), in.Name, m.Name(), err)
					continue
				}
				if !res.AllAwake {
					t.Errorf("%s on %s under %s: %d/%d awake",
						alg.Name(), in.Name, m.Name(), res.Awakened, in.N())
				}
			}
		}
	}
}

// solveEngine runs the algorithm keeping the engine visible so per-robot
// wake times can be checked against the metric lower bound.
func solveEngine(t *testing.T, m geom.Metric, alg Algorithm, in *instance.Instance, tup Tuple) (sim.Result, *Report, error) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Source: in.Source, Sleepers: in.Points, Metric: m})
	rep := alg.Install(e, tup)
	res, err := e.RunCtx(context.Background())
	if err != nil {
		return res, rep, err
	}
	for id := sim.SourceID + 1; id < e.NumRobots(); id++ {
		r := e.Robot(id)
		if r.State() != sim.Awake {
			continue
		}
		lb := geom.MetricOrL2(m).Dist(in.Source, r.InitPos())
		if r.WakeTime() < lb-1e-9 {
			t.Errorf("%s under %s: robot %d woken at %.6g before metric lower bound %.6g",
				alg.Name(), m.Name(), r.ID(), r.WakeTime(), lb)
		}
	}
	return res, rep, err
}

// A nil metric means ℓ2: SolveFaulted(nil) ≡ SolveFaulted(L2) ≡ Solve,
// result for result.
func TestSolveFaultedL2MatchesSolve(t *testing.T) {
	in := instance.RandomWalk(rand.New(rand.NewSource(2)), 20, 0.9)
	tup := TupleForIn(nil, in)
	base, baseRep, err := Solve(AGrid{}, in, tup, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []geom.Metric{nil, geom.L2} {
		res, rep, err := SolveFaulted(context.Background(), nil, m, AGrid{}, in, tup, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan != base.Makespan || res.TotalEnergy != base.TotalEnergy ||
			res.MaxEnergy != base.MaxEnergy || rep.Rounds != baseRep.Rounds {
			t.Fatalf("SolveFaulted(%v) diverged from Solve: %+v vs %+v", m, res, base)
		}
	}
}

// TupleForIn must measure in the requested metric: on an instance with
// diagonal structure, ℓ1 parameters dominate ℓ2 which dominate ℓ∞.
func TestTupleForInOrdering(t *testing.T) {
	in := instance.RandomWalk(rand.New(rand.NewSource(8)), 24, 1.1)
	p1 := in.ParamsIn(geom.L1)
	p2 := in.ParamsIn(geom.L2)
	pi := in.ParamsIn(geom.LInf)
	if !(p1.Rho >= p2.Rho && p2.Rho >= pi.Rho) {
		t.Errorf("ρ* not monotone across metrics: ℓ1=%g ℓ2=%g ℓ∞=%g", p1.Rho, p2.Rho, pi.Rho)
	}
	if !(p1.Ell >= pi.Ell) {
		t.Errorf("ℓ* not ℓ1 ≥ ℓ∞: %g vs %g", p1.Ell, pi.Ell)
	}
	if p1.Rho == pi.Rho {
		t.Errorf("walk instance has identical ρ* under ℓ1 and ℓ∞ (%g) — metric not threaded?", p1.Rho)
	}
}
