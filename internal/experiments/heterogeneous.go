package experiments

import (
	"fmt"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/report"
)

// H1Heterogeneous races the fixed algorithms across speed-spread ratios on
// the P1/M1 instance families (E1 sparse lines, E4 fat lines, A1-style
// clustered chains). A spread of s puts every sleeping robot's speed in
// [1/s, 1] via the speedband family modifier (the profile stream is salted
// off the family seed, so the point set is byte-identical to the unmodified
// family at every spread); s = 1 is the homogeneous baseline. Growing s is
// where the makespan guarantees degrade: the slot-work bounds every
// schedule obeys scale by 1/min-speed, while actual travel degrades only on
// the legs the slow robots carry — the per-algorithm columns show which
// schedules pay the spread in full and which hide it, and the winner column
// where the portfolio's choice flips. Every trial is one min-makespan race,
// so the columns are the algorithms' own deterministic makespans (the race
// never cancels), bit-identical at any worker count.
func (r *Runner) H1Heterogeneous(scale Scale) (*report.Table, error) {
	entrants := []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}}
	spreads := []float64{1, 2, 4}
	if scale == Full {
		spreads = []float64{1, 1.5, 2, 4, 8}
	}
	type fam struct {
		label  string
		family string
		n      int
		param  float64
	}
	fams := []fam{
		{"line ℓ=1 (E1)", "line", 32, 1},
		{"line ℓ=4 (E4)", "line", 24, 4},
		{"clusters (A1)", "chain", 16, 1},
	}
	if scale == Full {
		fams = append(fams, fam{"line ℓ=1 long (E1)", "line", 96, 1})
	}
	type cfg struct {
		fam    fam
		spread float64
	}
	var cfgs []cfg
	for _, f := range fams {
		for _, s := range spreads {
			cfgs = append(cfgs, cfg{fam: f, spread: s})
		}
	}
	t := report.NewTable("H1 — heterogeneous speed spread: fixed algorithms raced at speeds in [1/s, 1]",
		"family", "spread s", "n", "min speed", "ASeparator", "AGrid", "AWave", "winner")
	err := Sweep(r, t, cfgs, func(_ *Trial, c cfg) (Row, error) {
		name := c.fam.family
		if c.spread != 1 {
			name = fmt.Sprintf("%s+speedband:%g", c.fam.family, 1/c.spread)
		}
		in, err := instance.Family(name, c.fam.n, c.fam.param, r.seed)
		if err != nil {
			return nil, err
		}
		tup := dftp.TupleForIn(nil, in)
		pf := portfolio.Portfolio{Algorithms: entrants, Objective: portfolio.MinMakespan{}, Seed: r.seed}
		res, err := portfolio.Race(pf, in, tup, 0, portfolio.Options{})
		if err != nil {
			return nil, fmt.Errorf("race on %s at spread %g: %w", in.Name, c.spread, err)
		}
		for _, rr := range res.Racers {
			if !rr.AllAwake {
				return nil, fmt.Errorf("%s on %s at spread %g: incomplete wake-up",
					rr.Algorithm, in.Name, c.spread)
			}
		}
		return Row{c.fam.label, c.spread, in.N(), in.MinSpeed(),
			res.Racers[0].Makespan, res.Racers[1].Makespan, res.Racers[2].Makespan,
			res.Racers[res.Winner].Algorithm}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
