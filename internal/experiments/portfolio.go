package experiments

import (
	"fmt"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/report"
)

// P1Portfolio measures the portfolio racing engine against each fixed
// algorithm across the instance families of E1 (sparse lines, where
// ASeparator's ρ-dominated bound wins), E4 (fat lines at ℓ=4, AWave's
// regime) and the A1-style random clustered swarms (chain instances): no
// single algorithm wins every family — the complementarity the portfolio
// exploits. The portfolio column must equal the per-row best fixed makespan
// (ratio 1), because a min-makespan race returns the argmin of its
// entrants; the winner column shows it switching algorithms per family.
func (r *Runner) P1Portfolio(scale Scale) (*report.Table, error) {
	entrants := []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}}
	type cfg struct {
		family string
		build  func(*Trial) *instance.Instance
	}
	cfgs := []cfg{
		{"line ℓ=1 (E1)", func(*Trial) *instance.Instance { return instance.Line(32, 1) }},
		{"line ℓ=4 (E4)", func(*Trial) *instance.Instance { return instance.Line(24, 4) }},
		{"clusters (A1)", func(tr *Trial) *instance.Instance { return instance.ClusterChain(tr.RNG, 3, 8, 5, 1) }},
	}
	if scale == Full {
		cfgs = append(cfgs,
			cfg{"line ℓ=1 long (E1)", func(*Trial) *instance.Instance { return instance.Line(96, 1) }},
			cfg{"line ℓ=4 long (E4)", func(*Trial) *instance.Instance { return instance.Line(60, 4) }},
			cfg{"clusters wide (A1)", func(tr *Trial) *instance.Instance { return instance.ClusterChain(tr.RNG, 5, 8, 8, 1) }},
		)
	}
	t := report.NewTable("P1 — portfolio vs fixed algorithms (min-makespan race)",
		"family", "n", "ASeparator", "AGrid", "AWave", "portfolio", "winner", "portfolio/best")
	err := Sweep(r, t, cfgs, func(tr *Trial, c cfg) (Row, error) {
		in := c.build(tr)
		tup := dftp.TupleForIn(nil, in)
		pf := portfolio.Portfolio{Algorithms: entrants, Objective: portfolio.MinMakespan{}, Seed: r.seed}
		res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{})
		if err != nil {
			return nil, fmt.Errorf("portfolio on %s: %w", in.Name, err)
		}
		// A min-makespan race never cancels, so every racer reports the
		// fixed algorithm's own deterministic makespan — the race IS the
		// per-algorithm baseline sweep, one simulation each.
		best := -1
		for i, rr := range res.Racers {
			if !rr.AllAwake {
				return nil, fmt.Errorf("%s on %s: incomplete wake-up", rr.Algorithm, in.Name)
			}
			if best < 0 || rr.Makespan < res.Racers[best].Makespan {
				best = i
			}
		}
		if res.Winner != best || res.Res.Makespan != res.Racers[best].Makespan {
			return nil, fmt.Errorf("portfolio on %s picked racer %d, argmin is %d", in.Name, res.Winner, best)
		}
		return Row{c.family, in.N(), res.Racers[0].Makespan, res.Racers[1].Makespan, res.Racers[2].Makespan,
			res.Res.Makespan, res.Racers[res.Winner].Algorithm, res.Res.Makespan / res.Racers[best].Makespan}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
