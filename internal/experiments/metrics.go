package experiments

import (
	"fmt"

	"freezetag/internal/dftp"
	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/report"
)

// M1Metrics races the fixed algorithms across the built-in metrics on the
// P1 instance families (E1 sparse lines, E4 fat lines, A1-style clustered
// chains). The metric is a genuine experiment axis: the same point set has
// different (ℓ*, ρ*) per metric — ℓ1 inflates distances (up to √2×) and
// tightens the look ball, ℓ∞ deflates them and widens it — so makespans,
// energies, and even the winning algorithm can change between norms on one
// instance. Every trial is one min-makespan race, so the per-algorithm
// columns are the fixed algorithms' own deterministic makespans under that
// metric (the race never cancels), and the winner column is the argmin.
func (r *Runner) M1Metrics(scale Scale) (*report.Table, error) {
	entrants := []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}}
	metrics := []geom.Metric{geom.L1, geom.L2, geom.LInf}
	type cfg struct {
		family string
		metric geom.Metric
		build  func(*Trial) *instance.Instance
	}
	type fam struct {
		name  string
		build func(*Trial) *instance.Instance
	}
	fams := []fam{
		{"line ℓ=1 (E1)", func(*Trial) *instance.Instance { return instance.Line(32, 1) }},
		{"line ℓ=4 (E4)", func(*Trial) *instance.Instance { return instance.Line(24, 4) }},
		{"clusters (A1)", func(tr *Trial) *instance.Instance { return instance.ClusterChain(tr.RNG, 3, 8, 5, 1) }},
	}
	if scale == Full {
		fams = append(fams,
			fam{"line ℓ=1 long (E1)", func(*Trial) *instance.Instance { return instance.Line(96, 1) }},
			fam{"clusters wide (A1)", func(tr *Trial) *instance.Instance { return instance.ClusterChain(tr.RNG, 5, 8, 8, 1) }},
		)
	}
	var cfgs []cfg
	for _, f := range fams {
		for _, m := range metrics {
			cfgs = append(cfgs, cfg{family: f.name, metric: m, build: f.build})
		}
	}
	t := report.NewTable("M1 — metric sweep: fixed algorithms raced under ℓ1/ℓ2/ℓ∞",
		"family", "metric", "n", "ℓ*", "ρ*", "ASeparator", "AGrid", "AWave", "winner")
	err := Sweep(r, t, cfgs, func(tr *Trial, c cfg) (Row, error) {
		in := c.build(tr)
		// One derivation of ℓ* and ρ* serves both the printed columns and
		// the tuple; the table shows no ξ, so none is derived.
		p := diskgraph.Params{
			Rho: geom.MaxDistFromIn(c.metric, in.Source, in.Points),
			Ell: diskgraph.ConnectivityThresholdIn(c.metric, in.Source, in.Points),
			N:   in.N(),
		}
		tup := dftp.TupleFromParams(p)
		pf := portfolio.Portfolio{Algorithms: entrants, Objective: portfolio.MinMakespan{}, Seed: r.seed}
		res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{Metric: c.metric})
		if err != nil {
			return nil, fmt.Errorf("race on %s under %s: %w", in.Name, c.metric.Name(), err)
		}
		for _, rr := range res.Racers {
			if !rr.AllAwake {
				return nil, fmt.Errorf("%s on %s under %s: incomplete wake-up",
					rr.Algorithm, in.Name, c.metric.Name())
			}
		}
		return Row{c.family, c.metric.Name(), in.N(), p.Ell, p.Rho,
			res.Racers[0].Makespan, res.Racers[1].Makespan, res.Racers[2].Makespan,
			res.Racers[res.Winner].Algorithm}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
