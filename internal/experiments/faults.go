package experiments

import (
	"context"
	"fmt"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/report"
)

// F8FaultResilience is the fault-series sweep: fault rate × fault kind per
// algorithm, with the repair layer on versus off. Each cell averages a few
// seeded fault draws (streams derived from the sweep seed, so the table is
// bit-identical at any worker count) and reports the completion rate — the
// fraction of sleepers awakened — and the makespan inflation of the repaired
// runs over the fault-free baseline. The table is the repair layer's
// cost-benefit statement: under crash-stop faults repair restores completion
// 1.0 at a bounded makespan premium, while without it crashed carriers take
// whole subtrees down with them; wake-dup is the control row (at-least-once
// waking absorbs duplicates, so both columns stay at 1.0).
func (r *Runner) F8FaultResilience(scale Scale) (*report.Table, error) {
	algs := []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}}
	rates := []float64{0.15, 0.3}
	n, draws := 48, 3
	if scale == Full {
		algs = []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}, dftp.ASeparatorAuto{}}
		rates = []float64{0.1, 0.3, 0.5}
		n, draws = 80, 6
	}
	kinds := []string{"crash-stop", "crash-recovery", "wake-drop", "wake-dup", "byzantine"}
	type cfg struct {
		kind string
		rate float64
		alg  dftp.Algorithm
	}
	var cfgs []cfg
	for _, kind := range kinds {
		for _, rate := range rates {
			for _, alg := range algs {
				cfgs = append(cfgs, cfg{kind: kind, rate: rate, alg: alg})
			}
		}
	}
	t := report.NewTable("F8 — fault resilience: completion and makespan inflation, repair on vs off",
		"fault kind", "rate f", "algorithm", "base makespan",
		"completion (repair)", "inflation ×", "completion (no repair)")
	err := Sweep(r, t, cfgs, func(tr *Trial, c cfg) (Row, error) {
		in, err := instance.Family("disk", n, 1.2, r.seed)
		if err != nil {
			return nil, err
		}
		tup := dftp.TupleForIn(nil, in)
		base, _, err := dftp.Solve(c.alg, in, tup, 0)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", c.alg.Name(), err)
		}
		// One fault draw per (cell, d): the stream index folds in the cell's
		// trial index so no two cells share a draw.
		run := func(repair bool) (completion, meanMakespan float64, err error) {
			var compSum, msSum float64
			completed := 0
			for d := 0; d < draws; d++ {
				f := &dftp.Faults{
					Kind: c.kind, Rate: c.rate,
					Seed:   TrialSeed(r.seed, tr.Index*1000+d),
					Repair: repair,
				}
				if c.kind == "byzantine" {
					f.Byzantine = 1 + int(c.rate*float64(n))
				}
				res, _, err := dftp.SolveFaulted(context.Background(), nil, nil, c.alg, in, tup, 0, f, nil)
				if err != nil {
					return 0, 0, fmt.Errorf("%s under %s f=%g: %w", c.alg.Name(), c.kind, c.rate, err)
				}
				compSum += float64(res.Awakened) / float64(in.N())
				if res.AllAwake {
					msSum += res.Makespan
					completed++
				}
			}
			if completed > 0 {
				meanMakespan = msSum / float64(completed)
			}
			return compSum / float64(draws), meanMakespan, nil
		}
		repComp, repMs, err := run(true)
		if err != nil {
			return nil, err
		}
		noComp, _, err := run(false)
		if err != nil {
			return nil, err
		}
		inflation := 0.0
		if repMs > 0 {
			inflation = repMs / base.Makespan
		}
		return Row{c.kind, c.rate, c.alg.Name(), base.Makespan, repComp, inflation, noComp}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
