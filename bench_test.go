// Package freezetag_test is the benchmark harness of the reproduction: one
// benchmark per table/figure of the paper (regenerating the experiment and
// reporting its headline quantity as a custom metric), plus micro-benchmarks
// of the substrates (simulator, disk-graph analytics, exploration planning,
// wake-up trees) for -benchmem profiling.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The full experiment tables (with CSVs) come from: go run ./cmd/dftp-bench
// -scale full.
package freezetag_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"freezetag"
	"freezetag/internal/arena"
	"freezetag/internal/dftp"
	"freezetag/internal/diskgraph"
	"freezetag/internal/experiments"
	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/report"
	"freezetag/internal/service"
	"freezetag/internal/sim"
	"freezetag/internal/spatial"
	"freezetag/internal/wakeup"
)

// benchRunner is the shared pool for the experiment benchmarks: GOMAXPROCS
// workers, so BenchmarkTable1_* report the parallel-engine wall-clock on
// multi-core machines. Tables are bit-identical at any worker count.
var benchRunner = experiments.NewRunner()

// benchExperiment runs one experiment generator per iteration and fails the
// benchmark on any error.
func benchExperiment(b *testing.B, fn func(experiments.Scale) (*report.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb, err := fn(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if tb.NumRows() == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

// --- Table 1 rows -------------------------------------------------------------

func BenchmarkTable1_ASeparatorRho(b *testing.B)   { benchExperiment(b, benchRunner.E1RhoSweep) }
func BenchmarkTable1_ASeparatorEll(b *testing.B)   { benchExperiment(b, benchRunner.E1EllSweep) }
func BenchmarkTable1_EnergyThreshold(b *testing.B) { benchExperiment(b, benchRunner.E2EnergyThreshold) }
func BenchmarkTable1_AGrid(b *testing.B)           { benchExperiment(b, benchRunner.E3AGrid) }
func BenchmarkTable1_AWave(b *testing.B)           { benchExperiment(b, benchRunner.E4AWave) }
func BenchmarkTable1_LowerBoundThm2(b *testing.B)  { benchExperiment(b, benchRunner.E5LowerBound) }
func BenchmarkThm6_PathConstruction(b *testing.B)  { benchExperiment(b, benchRunner.E6Path) }

// --- Figures ------------------------------------------------------------------

func BenchmarkFig1_Phases(b *testing.B)       { benchExperiment(b, benchRunner.F1Phases) }
func BenchmarkFig4_Explore(b *testing.B)      { benchExperiment(b, benchRunner.F4Explore) }
func BenchmarkFig5_Construction(b *testing.B) { benchExperiment(b, benchRunner.F5Construction) }

// --- Lemmas -------------------------------------------------------------------

func BenchmarkLem2_WakeTree(b *testing.B)   { benchExperiment(b, benchRunner.L2WakeTree) }
func BenchmarkLem5_DFSampling(b *testing.B) { benchExperiment(b, benchRunner.L5DFSampling) }

// --- Ablations ------------------------------------------------------------------

func BenchmarkAblation_TreeVsOptimal(b *testing.B) { benchExperiment(b, benchRunner.A1TreeQuality) }
func BenchmarkAblation_RhoEstimation(b *testing.B) { benchExperiment(b, benchRunner.A2RhoEstimation) }
func BenchmarkAblation_TeamGrowth(b *testing.B)    { benchExperiment(b, benchRunner.A3TeamGrowth) }
func BenchmarkAblation_EllRobustness(b *testing.B) { benchExperiment(b, benchRunner.A4EllRobustness) }
func BenchmarkAblation_ChainBaseline(b *testing.B) { benchExperiment(b, benchRunner.A5Baseline) }
func BenchmarkCrossover_AGridVsAWave(b *testing.B) { benchExperiment(b, benchRunner.E7Crossover) }

// --- Runner: serial vs parallel fan-out -----------------------------------------

// benchRunnerWorkers runs a bundle of trial-heavy Quick sweeps on a pool of
// the given size; comparing the _Serial and _Parallel variants measures the
// engine's fan-out speedup (they produce bit-identical tables).
func benchRunnerWorkers(b *testing.B, workers int) {
	b.Helper()
	r := experiments.NewRunner(experiments.WithWorkers(workers))
	for i := 0; i < b.N; i++ {
		for _, fn := range []func(experiments.Scale) (*report.Table, error){
			r.E1RhoSweep, r.E3AGrid, r.E5LowerBound, r.F4Explore,
		} {
			if _, err := fn(experiments.Quick); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRunner_Serial(b *testing.B) { benchRunnerWorkers(b, 1) }
func BenchmarkRunner_Parallel(b *testing.B) {
	benchRunnerWorkers(b, runtime.GOMAXPROCS(0))
}

// --- Headline end-to-end runs with reported makespan ---------------------------

func benchAlgorithm(b *testing.B, alg dftp.Algorithm, inst *instance.Instance) {
	b.Helper()
	tup := dftp.TupleForIn(nil, inst)
	var mk, en float64
	for i := 0; i < b.N; i++ {
		res, rep, err := dftp.Solve(alg, inst, tup, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllAwake || len(rep.Misses) > 0 {
			b.Fatalf("incomplete run (awake=%v misses=%d)", res.AllAwake, len(rep.Misses))
		}
		mk, en = res.Makespan, res.MaxEnergy
	}
	b.ReportMetric(mk, "makespan")
	b.ReportMetric(en, "maxEnergy")
}

func BenchmarkEndToEnd_ASeparator_Line64(b *testing.B) {
	benchAlgorithm(b, dftp.ASeparator{}, instance.Line(64, 1))
}

func BenchmarkEndToEnd_ASeparator_Walk60(b *testing.B) {
	benchAlgorithm(b, dftp.ASeparator{}, instance.RandomWalk(rand.New(rand.NewSource(1)), 60, 0.9))
}

func BenchmarkEndToEnd_AGrid_Line32(b *testing.B) {
	benchAlgorithm(b, dftp.AGrid{}, instance.Line(32, 1))
}

func BenchmarkEndToEnd_AWave_Walk40(b *testing.B) {
	benchAlgorithm(b, dftp.AWave{}, instance.RandomWalk(rand.New(rand.NewSource(2)), 40, 0.9))
}

func BenchmarkEndToEnd_ASeparatorAuto_Line32(b *testing.B) {
	benchAlgorithm(b, dftp.ASeparatorAuto{}, instance.Line(32, 1))
}

// BenchmarkEndToEnd_Faulted measures what a fault plan costs on the same
// instance: the fault-free baseline, crash-stop with the repair layer
// (detection watches + monitor polls + rescue trees), and crash-stop
// without it (less work — crashed subtrees are simply lost; whether the
// run still completes depends on how much redundancy the algorithm's own
// schedule happens to carry). Completion is reported as a metric so the
// three rows can be compared honestly.
func BenchmarkEndToEnd_Faulted(b *testing.B) {
	in := instance.UniformDisk(rand.New(rand.NewSource(5)), 60, 12)
	tup := dftp.TupleForIn(nil, in)
	specs := []struct {
		name   string
		faults *dftp.Faults
	}{
		{"fault-free", nil},
		{"crash-stop-repair", &dftp.Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42, Repair: true}},
		{"crash-stop-no-repair", &dftp.Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42}},
	}
	for _, s := range specs {
		b.Run(s.name, func(b *testing.B) {
			var mk, comp float64
			for i := 0; i < b.N; i++ {
				res, _, err := dftp.SolveFaulted(context.Background(), nil, nil, dftp.AGrid{}, in, tup, 0, s.faults, nil)
				if err != nil {
					b.Fatal(err)
				}
				mk = res.Makespan
				comp = float64(res.Awakened) / float64(in.N())
			}
			b.ReportMetric(mk, "makespan")
			b.ReportMetric(comp, "completion")
		})
	}
}

func BenchmarkWakeup_Optimal10(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]wakeup.Target, 10)
	for i := range ts {
		ts[i] = wakeup.Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wakeup.OptimalMakespan(geom.Origin, ts) <= 0 {
			b.Fatal("bad optimum")
		}
	}
}

// --- Substrate micro-benchmarks -------------------------------------------------

// BenchmarkSim_MoveLookCycle prices the step every algorithm is made of, a
// MoveTo followed by a Look: the source makes 100 of them over 100 sleepers
// scattered on a 20×20 square. pooled runs every op on one arena engine, as
// the service's workers do; oneshot builds a fresh engine per op.
func BenchmarkSim_MoveLookCycle(b *testing.B) {
	sleepers := make([]geom.Point, 100)
	rng := rand.New(rand.NewSource(3))
	for i := range sleepers {
		sleepers[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	source := func(p *sim.Proc) {
		for j := 0; j < 100; j++ {
			if err := p.MoveTo(geom.Pt(float64(j%20), float64(j%17))); err != nil {
				b.Error(err)
				return
			}
			p.Look()
		}
	}
	cfg := sim.Config{Source: geom.Origin, Sleepers: sleepers}
	run := func(b *testing.B, engine func() *sim.Engine) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine()
			e.Spawn(sim.SourceID, source)
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pooled", func(b *testing.B) {
		a := arena.New("bench")
		defer a.Close()
		run(b, func() *sim.Engine { return sim.NewEngineIn(a, cfg) })
	})
	b.Run("oneshot", func(b *testing.B) {
		run(b, func() *sim.Engine { return sim.NewEngine(cfg) })
	})
}

// BenchmarkSim_Handoff prices the simulator's process resume, which every
// event dispatch pays: the source spawns 64 processes half a time unit
// apart and each waits 20 times, ~1,400 dispatches per op with ~41
// processes alive at once. pooled runs every op on one arena engine, whose
// idle process coroutines carry over; oneshot builds a fresh engine per op.
func BenchmarkSim_Handoff(b *testing.B) {
	worker := func(q *sim.Proc) {
		for j := 0; j < 20; j++ {
			q.Wait(1)
		}
	}
	source := func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			p.Engine().Spawn(sim.SourceID, worker)
			p.Wait(0.5)
		}
	}
	cfg := sim.Config{Source: geom.Origin}
	run := func(b *testing.B, engine func() *sim.Engine) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine()
			e.Spawn(sim.SourceID, source)
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pooled", func(b *testing.B) {
		a := arena.New("bench")
		defer a.Close()
		run(b, func() *sim.Engine { return sim.NewEngineIn(a, cfg) })
	})
	b.Run("oneshot", func(b *testing.B) {
		run(b, func() *sim.Engine { return sim.NewEngine(cfg) })
	})
}

func BenchmarkSpatial_Within(b *testing.B) {
	g := spatial.NewGridIn(nil, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		g.Insert(i, geom.Pt(rng.Float64()*100, rng.Float64()*100))
	}
	buf := g.Within(nil, geom.Pt(50, 50), 1) // builds the index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(buf[:0], geom.Pt(50, 50), 1)
	}
	_ = buf
}

// BenchmarkSpatial_Sweep prices the simulator's sweep pattern, which the
// single-point BenchmarkSpatial_Within never exercises: a radius-1 Within
// at every stop of a 256×256 lattice of unit cells (the side of an AWave
// wave square for ℓ ≤ 4), over a fixed 24-point population clustered near
// the origin like a small swarm, so most stops lie outside the items'
// bounding box and probe no cell at all. One op is the whole sweep.
func BenchmarkSpatial_Sweep(b *testing.B) {
	const side = 256
	g := spatial.NewGridIn(nil, 1)
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= 24; i++ {
		g.Insert(i, geom.Pt(rng.Float64()*10, rng.Float64()*10))
	}
	buf := g.Within(nil, geom.Origin, 1) // builds the index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				buf = g.Within(buf[:0], geom.Pt(float64(x)+0.5, float64(y)+0.5), 1)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*side*side), "ns/stop")
	_ = buf
}

func BenchmarkDiskGraph_Params(b *testing.B) {
	inst := instance.RandomWalk(rand.New(rand.NewSource(5)), 300, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = diskgraph.ComputeParamsIn(nil, inst.Source, inst.Points)
	}
}

// benchConnectivity prices the ℓ* derivation on a generated family at a
// given size: _Dense is the O(n²) Prim oracle, _Grid the spatial-grid
// Borůvka that replaced it on the cold path. The two return bit-identical
// values (asserted by the diskgraph property tests); only the time differs.
func benchConnectivity(b *testing.B, family string, n int, param float64, dense bool) {
	b.Helper()
	in, err := instance.Family(family, n, param, 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ell float64
		if dense {
			ell = diskgraph.ConnectivityThresholdDenseIn(nil, in.Source, in.Points)
		} else {
			ell = diskgraph.ConnectivityThresholdIn(nil, in.Source, in.Points)
		}
		if ell <= 0 {
			b.Fatal("degenerate threshold")
		}
	}
}

func BenchmarkConnectivityThreshold_Dense512(b *testing.B) {
	benchConnectivity(b, "walk", 512, 0.9, true)
}
func BenchmarkConnectivityThreshold_Grid512(b *testing.B) {
	benchConnectivity(b, "walk", 512, 0.9, false)
}
func BenchmarkConnectivityThreshold_Dense4096(b *testing.B) {
	benchConnectivity(b, "walk", 4096, 0.9, true)
}
func BenchmarkConnectivityThreshold_Grid4096(b *testing.B) {
	benchConnectivity(b, "walk", 4096, 0.9, false)
}

// The disk family is the well-conditioned case the grid pass is designed
// around: uniform density, so nearest-foreign queries stay local.
func BenchmarkConnectivityThreshold_DiskDense4096(b *testing.B) {
	benchConnectivity(b, "disk", 4096, 64, true)
}
func BenchmarkConnectivityThreshold_DiskGrid4096(b *testing.B) {
	benchConnectivity(b, "disk", 4096, 64, false)
}

func BenchmarkWakeup_BuildTree(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ts := make([]wakeup.Target, 500)
	for i := range ts {
		ts[i] = wakeup.Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*50, rng.Float64()*50)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := wakeup.BuildTreeIn(nil, geom.Origin, ts)
		if wakeup.Size(root) != len(ts) {
			b.Fatal("bad tree")
		}
	}
}

// BenchmarkExplore_PlanRect walks a 64×64 rectangle's sweep lattice stop by
// stop, as a sweep does: planning holds O(1) memory, so it allocates nothing.
func BenchmarkExplore_PlanRect(b *testing.B) {
	r := geom.RectWH(geom.Origin, 64, 64)
	b.ReportAllocs()
	for b.Loop() {
		l := explore.RectLattice(nil, r)
		var sum geom.Point
		for row := 0; row < l.Rows; row++ {
			for col := 0; col < l.Cols; col++ {
				sum = sum.Add(l.Stop(row, col))
			}
		}
		if sum.X <= 0 {
			b.Fatal("empty plan")
		}
	}
}

// --- Portfolio racing ---------------------------------------------------------

// benchPortfolioInstance is the fixed instance the portfolio benchmarks
// race on.
func benchPortfolioInstance() *instance.Instance {
	return instance.RandomWalk(rand.New(rand.NewSource(8)), 32, 0.9)
}

func benchPortfolioAlgs() []dftp.Algorithm {
	return []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}, dftp.ASeparatorAuto{}}
}

// BenchmarkPortfolio_Race runs the full four-entrant min-makespan race per
// iteration; compare with _BestFixed (the single algorithm the race ends up
// picking — the price of not knowing the winner a priori) and
// _FirstUnderCancel (the early-stop objective, which cancels the losers).
func BenchmarkPortfolio_Race(b *testing.B) {
	in := benchPortfolioInstance()
	tup := dftp.TupleForIn(nil, in)
	pf := portfolio.Portfolio{Algorithms: benchPortfolioAlgs(), Objective: portfolio.MinMakespan{}}
	var mk float64
	for i := 0; i < b.N; i++ {
		res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{})
		if err != nil {
			b.Fatal(err)
		}
		mk = res.Res.Makespan
	}
	b.ReportMetric(mk, "makespan")
}

// BenchmarkPortfolio_BestFixed is the oracle baseline: solve only with the
// algorithm the race would declare the winner.
func BenchmarkPortfolio_BestFixed(b *testing.B) {
	in := benchPortfolioInstance()
	tup := dftp.TupleForIn(nil, in)
	pf := portfolio.Portfolio{Algorithms: benchPortfolioAlgs(), Objective: portfolio.MinMakespan{}}
	res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{})
	if err != nil {
		b.Fatal(err)
	}
	best := pf.Algorithms[res.Winner]
	b.ResetTimer()
	benchAlgorithm(b, best, in)
}

// BenchmarkPortfolio_FirstUnderCancel races with a first-under-budget
// target the first entrant meets, so the remaining racers are cancelled —
// the early-stop speed win over the full race.
func BenchmarkPortfolio_FirstUnderCancel(b *testing.B) {
	in := benchPortfolioInstance()
	tup := dftp.TupleForIn(nil, in)
	pf := portfolio.Portfolio{Algorithms: benchPortfolioAlgs(), Objective: portfolio.FirstUnder{MaxMakespan: 1e9}}
	var cancelled int
	for i := 0; i < b.N; i++ {
		res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Satisfied {
			b.Fatal("target not met")
		}
		cancelled = res.Cancelled
	}
	b.ReportMetric(float64(cancelled), "cancelled")
}

// --- Solver service -----------------------------------------------------------

// serviceSolveRequest is the fixed request the service benchmarks use.
func serviceSolveRequest(seed int64) service.SolveRequest {
	return service.SolveRequest{Algorithm: "agrid", Family: "walk", N: 32, Param: 0.9, Seed: seed}
}

// BenchmarkService_SolveCold measures the uncached path: every iteration is
// a distinct request (fresh seed), so each one resolves, hashes, queues, and
// simulates. The cold/cached pair is the baseline later caching PRs compare
// against.
func BenchmarkService_SolveCold(b *testing.B) {
	s := service.New(service.Config{QueueDepth: 1, CacheBytes: 1})
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(serviceSolveRequest(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkService_SolveCached measures the hit path: one warm-up solve,
// then every iteration is the identical request served from the LRU
// (resolve + hash + lookup, no simulation).
func BenchmarkService_SolveCached(b *testing.B) {
	s := service.New(service.Config{})
	defer s.Close()
	if _, err := s.Solve(serviceSolveRequest(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv, err := s.Solve(serviceSolveRequest(0))
		if err != nil {
			b.Fatal(err)
		}
		if !sv.Hit {
			b.Fatal("cached benchmark missed the cache")
		}
	}
}

// BenchmarkService_SolveColdRepeatedFamily measures the cold path on a
// repeated family shape: every iteration changes the budget, so each
// request hashes differently (a genuine cold solve — resolve + queue +
// simulate + marshal) but the (family, n, param, seed, metric) shape
// repeats, so after the first iteration the (ℓ*, ρ*) derivation is served
// by the params memo.
func BenchmarkService_SolveColdRepeatedFamily(b *testing.B) {
	s := service.New(service.Config{QueueDepth: 1, CacheBytes: 1})
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := serviceSolveRequest(0)
		req.Budget = 1e6 + float64(i)
		if _, err := s.Solve(req); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 1 && s.Stats().ParamsMemoHits != int64(b.N-1) {
		b.Fatalf("params memo hits = %d, want %d", s.Stats().ParamsMemoHits, b.N-1)
	}
}

// BenchmarkService_SolveSteadyState is the zero-allocation serving target:
// traces dropped, a repeated family shape (params memo hit from iteration
// two on), and a distinct budget per iteration so every request still
// resolves, hashes, queues, simulates, and marshals. With warm per-worker
// arenas the entire chain reuses the previous iteration's buffers, so
// allocs/op converges to the arena bookkeeping floor (≤ 50 per the
// acceptance bar; the CI gate in service asserts it stays there).
func BenchmarkService_SolveSteadyState(b *testing.B) {
	s := service.New(service.Config{QueueDepth: 1, CacheBytes: 1})
	defer s.Close()
	// Warm the arenas and the params memo before measuring.
	for i := 0; i < 3; i++ {
		req := serviceSolveRequest(0)
		req.Budget = 2e6 + float64(i)
		if _, err := s.Solve(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := serviceSolveRequest(0)
		req.Budget = 1e6 + float64(i)
		if _, err := s.Solve(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkService_PortfolioRace measures a full served three-entrant race
// (cold, distinct seed per iteration): the third leg of the sim-hot-path
// baseline snapshotted in BENCH_4.json alongside SolveCold and SolveCached.
func BenchmarkService_PortfolioRace(b *testing.B) {
	s := service.New(service.Config{QueueDepth: 1, CacheBytes: 1})
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.SolvePortfolio(service.PortfolioRequest{
			Algorithms: []string{"aseparator", "agrid", "awave"},
			Family:     "walk", N: 24, Param: 0.9, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Metrics ------------------------------------------------------------------

// BenchmarkMetric_Dist prices one distance evaluation per metric — the
// innermost call of every grid query, travel computation, and wake-tree
// greedy after the pluggable-metric refactor. Every ℓp exponent, integer
// or not, takes the same two-Pow path.
func BenchmarkMetric_Dist(b *testing.B) {
	var lps []geom.Metric
	for _, p := range []float64{2.5, 3, 4} {
		m, err := geom.Lp(p)
		if err != nil {
			b.Fatal(err)
		}
		lps = append(lps, m)
	}
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1024)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	for _, m := range append([]geom.Metric{geom.L1, geom.L2, geom.LInf}, lps...) {
		b.Run(m.Name(), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				p, q := pts[i%len(pts)], pts[(i+7)%len(pts)]
				sink += m.Dist(p, q)
			}
			benchSink = sink
		})
	}
}

var benchSink float64

// BenchmarkEndToEnd_AGrid_Walk32_Metrics prices a full AGrid solve per
// metric: the per-metric cost of the abstraction on the sim hot path (the
// ℓ2 row is directly comparable with the pre-refactor
// BenchmarkEndToEnd_AGrid numbers).
func BenchmarkEndToEnd_AGrid_Walk32_Metrics(b *testing.B) {
	in := instance.RandomWalk(rand.New(rand.NewSource(8)), 32, 0.9)
	for _, m := range []geom.Metric{geom.L1, geom.L2, geom.LInf} {
		tup := dftp.TupleForIn(m, in)
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, _, err := freezetag.SolveIn(m, freezetag.AGrid, in, tup, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllAwake {
					b.Fatal("incomplete wake-up")
				}
			}
		})
	}
}

// BenchmarkEndToEnd_Heterogeneous solves one walk instance homogeneous and
// at two speed spreads: the deltas are the price of heterogeneity (slower
// robots stretch simulated time; the discrete-event count barely moves).
func BenchmarkEndToEnd_Heterogeneous(b *testing.B) {
	for _, band := range []string{"", "+speedband:0.5", "+speedband:0.25"} {
		name := "homogeneous"
		if band != "" {
			name = band[1:]
		}
		in, err := instance.Family("walk"+band, 32, 0.9, 8)
		if err != nil {
			b.Fatal(err)
		}
		tup := dftp.TupleForIn(nil, in)
		b.Run(name, func(b *testing.B) {
			var mk float64
			for i := 0; i < b.N; i++ {
				res, _, err := freezetag.SolveIn(nil, freezetag.AGrid, in, tup, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !res.AllAwake {
					b.Fatal("incomplete wake-up")
				}
				mk = res.Makespan
			}
			b.ReportMetric(mk, "makespan")
		})
	}
}
