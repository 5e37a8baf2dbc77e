package experiments

import (
	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/metrics"
	"freezetag/internal/report"
	"freezetag/internal/sampling"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// A1TreeQuality measures the approximation ratio of the longest-side
// bisection wake-up tree (the Lemma 2 substitute for [BCGH24]) against the
// exact optimum computed by the O(3ⁿ) DP, over random squares.
func (r *Runner) A1TreeQuality(scale Scale) (*report.Table, error) {
	sizes := []int{4, 6, 8}
	trials := 25
	if scale == Full {
		sizes = []int{4, 6, 8, 10, 12}
		trials = 50
	}
	t := report.NewTable("A1 — wake-up tree vs exact optimum (approximation ratio)",
		"n", "trials", "mean ratio", "max ratio")
	err := Sweep(r, t, sizes, func(tr *Trial, n int) (Row, error) {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			ts := make([]wakeup.Target, n)
			for i := range ts {
				ts[i] = wakeup.Target{ID: i + 1,
					Pos: geom.Pt(tr.RNG.Float64()*8-4, tr.RNG.Float64()*8-4)}
			}
			opt := wakeup.OptimalMakespan(geom.Origin, ts)
			heur := wakeup.MakespanIn(nil, geom.Origin, wakeup.BuildTreeIn(nil, geom.Origin, ts))
			if opt > 0 {
				ratios = append(ratios, heur/opt)
			}
		}
		return Row{n, trials, metrics.Mean(ratios), metrics.Max(ratios)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// A2RhoEstimation compares ASeparatorAuto (ℓ-only knowledge, §5) against
// ASeparator (told ρ): estimate quality and makespan overhead.
func (r *Runner) A2RhoEstimation(scale Scale) (*report.Table, error) {
	ns := []int{24, 48}
	if scale == Full {
		ns = []int{24, 48, 96}
	}
	t := report.NewTable("A2 — ρ-estimation (§5): ASeparatorAuto vs ASeparator",
		"n", "rho*", "auto makespan", "base makespan", "overhead")
	err := Sweep(r, t, ns, func(_ *Trial, n int) (Row, error) {
		in := instance.Line(n, 1)
		p := in.ParamsIn(nil)
		mkAuto, _, err := solveOnIn(nil, dftp.ASeparatorAuto{}, in, 0)
		if err != nil {
			return nil, err
		}
		mkBase, _, err := solveOnIn(nil, dftp.ASeparator{}, in, 0)
		if err != nil {
			return nil, err
		}
		return Row{n, p.Rho, mkAuto, mkBase, mkAuto / mkBase}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// A3TeamGrowth quantifies the Lemma 5 team-growth effect: DFSampling time
// with recruits joining the sweeps versus the ablated variant where the
// initial robot sweeps alone (recruits only tag along).
func (r *Runner) A3TeamGrowth(scale Scale) (*report.Table, error) {
	type cfg struct {
		ell    float64
		target int
	}
	cfgs := []cfg{{2, 8}, {4, 16}}
	if scale == Full {
		cfgs = []cfg{{2, 8}, {4, 16}, {8, 32}}
	}
	t := report.NewTable("A3 — DFSampling with vs without team growth (Lemma 5 ablation)",
		"ell", "recruits", "with growth", "without growth", "speedup")
	err := Sweep(r, t, cfgs, func(_ *Trial, c cfg) (Row, error) {
		with, err := dfsampleAblation(c.ell, c.target, false)
		if err != nil {
			return nil, err
		}
		without, err := dfsampleAblation(c.ell, c.target, true)
		if err != nil {
			return nil, err
		}
		return Row{c.ell, c.target, with, without, without / with}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func dfsampleAblation(ell float64, target int, noGrowth bool) (float64, error) {
	var pts []geom.Point
	for i := 1; i <= 2*target+4; i++ {
		pts = append(pts, geom.Pt(float64(i)*1.5*ell, 0))
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: pts})
	region := geom.Sq(geom.Pt(float64(len(pts))*ell, 0), 8*float64(len(pts))*ell)
	var dur float64
	var rerr error
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		start := p.Now()
		_, err := sampling.Run(p, nil, sampling.Request{
			Region:        region.Rect(),
			Square:        region,
			Ell:           ell,
			RecruitTarget: target,
			Seeds:         []sampling.Seed{{Pos: geom.Origin, AsleepID: -1}},
			NoTeamGrowth:  noGrowth,
		})
		rerr = err
		dur = p.Now() - start
	})
	if _, err := e.Run(); err != nil {
		return 0, err
	}
	return dur, rerr
}

// A4EllRobustness checks Definition 1's "any admissible tuple" clause: the
// algorithms must stay correct (and degrade gracefully) when the source is
// given an over-estimate of ℓ*.
func (r *Runner) A4EllRobustness(scale Scale) (*report.Table, error) {
	mults := []float64{1, 2}
	if scale == Full {
		mults = []float64{1, 2, 4}
	}
	t := report.NewTable("A4 — robustness to over-estimated ℓ (line, ℓ*=1)",
		"ell given", "ASeparator makespan", "AGrid makespan", "AGrid maxEnergy")
	err := Sweep(r, t, mults, func(_ *Trial, m float64) (Row, error) {
		in := instance.Line(32, 1)
		tup := dftp.TupleForIn(nil, in)
		tup.Ell = tup.Ell * m
		sepRes, _, err := dftp.Solve(dftp.ASeparator{}, in, tup, 0)
		if err != nil {
			return nil, err
		}
		gridRes, _, err := dftp.Solve(dftp.AGrid{}, in, tup, 0)
		if err != nil {
			return nil, err
		}
		if !sepRes.AllAwake || !gridRes.AllAwake {
			return Row{tup.Ell, "INCOMPLETE", "INCOMPLETE", 0.0}, nil
		}
		return Row{tup.Ell, sepRes.Makespan, gridRes.Makespan, gridRes.MaxEnergy}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// A5Baseline compares the wake-up tree against the no-delegation chain
// baseline (one robot wakes everyone, nearest-first): the speedup is the
// payoff of Algorithm 1's workforce doubling, the mechanism all of the
// paper's makespan bounds stand on.
func (r *Runner) A5Baseline(scale Scale) (*report.Table, error) {
	sizes := []int{20, 100}
	if scale == Full {
		sizes = []int{20, 100, 400, 1000}
	}
	t := report.NewTable("A5 — wake-up tree vs single-robot chain baseline (width-20 square)",
		"n", "chain makespan", "tree makespan", "speedup")
	err := Sweep(r, t, sizes, func(tr *Trial, n int) (Row, error) {
		ts := make([]wakeup.Target, n)
		for i := range ts {
			ts[i] = wakeup.Target{ID: i + 1,
				Pos: geom.Pt(tr.RNG.Float64()*20-10, tr.RNG.Float64()*20-10)}
		}
		chain := wakeup.ChainMakespan(geom.Origin, ts)
		tree := wakeup.MakespanIn(nil, geom.Origin, wakeup.BuildTreeIn(nil, geom.Origin, ts))
		return Row{n, chain, tree, chain / tree}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Ablations runs the ablation suite (A1–A5).
func (r *Runner) Ablations(scale Scale) ([]*report.Table, error) {
	type gen struct {
		name string
		fn   func(Scale) (*report.Table, error)
	}
	gens := []gen{
		{"A1", r.A1TreeQuality}, {"A2", r.A2RhoEstimation},
		{"A3", r.A3TeamGrowth}, {"A4", r.A4EllRobustness},
		{"A5", r.A5Baseline},
	}
	var out []*report.Table
	for _, g := range gens {
		tb, err := g.fn(scale)
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// Ablations runs the ablation suite on a fresh default runner (GOMAXPROCS
// workers, DefaultSeed).
func Ablations(scale Scale) ([]*report.Table, error) {
	return NewRunner().Ablations(scale)
}
