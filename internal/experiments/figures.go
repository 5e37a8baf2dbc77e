package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"freezetag/internal/dftp"
	"freezetag/internal/diskgraph"
	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/metrics"
	"freezetag/internal/report"
	"freezetag/internal/sampling"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// F1Phases regenerates the content of Figures 1–2: the phase anatomy of one
// ASeparator execution — per recursion depth, the number of reorganization
// barriers (parallel branches) and square widths, plus the wake-up timeline.
// The experiment is a single simulation, so it is inherently serial.
func (r *Runner) F1Phases(scale Scale) (*report.Table, error) {
	n := 48
	if scale == Full {
		n = 96
	}
	t := report.NewTable("F1/F2 — ASeparator phase anatomy (disk-grid ρ=12 ℓ=2)",
		"depth", "square width", "barrier arrivals", "wake quantile t25/t50/t75/t100")
	rows, err := f1Phases(n)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

func f1Phases(n int) ([]Row, error) {
	in := instance.DiskGridStatic(12, 2, n)
	tup := dftp.TupleForIn(nil, in)

	type depthStat struct {
		branches int
		width    float64
	}
	stats := map[int]*depthStat{}
	var wakeTimes []float64
	res, rep, err := dftp.SolveFaulted(context.Background(), nil, nil, dftp.ASeparator{}, in, tup, 0, nil,
		func(ev sim.Event) {
			switch ev.Kind {
			case "wake":
				wakeTimes = append(wakeTimes, ev.T)
			case "barrier":
				// Keys look like reorg/<nonce>/<cx,cy>/<width>/<depth>.
				if !strings.HasPrefix(ev.Extra, "reorg/") {
					return
				}
				parts := strings.Split(ev.Extra, "/")
				var width float64
				var depth int
				fmt.Sscanf(parts[len(parts)-2], "%g", &width)
				fmt.Sscanf(parts[len(parts)-1], "%d", &depth)
				ds := stats[depth]
				if ds == nil {
					ds = &depthStat{width: width}
					stats[depth] = ds
				}
				ds.branches++
			}
		})
	if err != nil {
		return nil, err
	}
	if !res.AllAwake || len(rep.Misses) > 0 {
		return nil, fmt.Errorf("F1: run failed (awake=%v misses=%d)", res.AllAwake, len(rep.Misses))
	}
	depths := make([]int, 0, len(stats))
	for d := range stats {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	sort.Float64s(wakeTimes)
	q := func(f float64) float64 {
		if len(wakeTimes) == 0 {
			return 0
		}
		i := int(f * float64(len(wakeTimes)-1))
		return wakeTimes[i]
	}
	quant := fmt.Sprintf("%.1f/%.1f/%.1f/%.1f", q(0.25), q(0.5), q(0.75), q(1))
	var rows []Row
	for i, d := range depths {
		qcol := ""
		if i == 0 {
			qcol = quant
		}
		rows = append(rows, Row{d, stats[d].width, stats[d].branches, qcol})
	}
	return rows, nil
}

// F4Explore regenerates Figure 4's content: Lemma 1 exploration cost across
// rectangle dimensions and team sizes, with the fitted model
// a·wh/k + b·(w+h) + c.
func (r *Runner) F4Explore(scale Scale) (*report.Table, error) {
	dims := [][2]float64{{8, 8}, {16, 8}}
	ks := []int{1, 2, 4}
	if scale == Full {
		dims = [][2]float64{{8, 8}, {16, 8}, {16, 16}, {32, 16}}
		ks = []int{1, 2, 4, 8}
	}
	type cfg struct {
		w, h float64
		k    int
	}
	var cfgs []cfg
	for _, d := range dims {
		for _, k := range ks {
			cfgs = append(cfgs, cfg{d[0], d[1], k})
		}
	}
	t := report.NewTable("F4 — Explore cost (Lemma 1: O(wh/k + w + h))",
		"w", "h", "k", "duration", "model wh/k+w+h", "ratio")
	type point struct {
		row  Row
		feat []float64
		y    float64
	}
	points, err := Map(r, cfgs, func(_ *Trial, c cfg) (point, error) {
		dur, err := exploreDuration(c.w, c.h, c.k)
		if err != nil {
			return point{}, err
		}
		model := c.w*c.h/float64(c.k) + c.w + c.h
		return point{
			row:  Row{c.w, c.h, c.k, dur, model, dur / model},
			feat: []float64{c.w * c.h / float64(c.k), c.w + c.h, 1},
			y:    dur,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var feats [][]float64
	var ys []float64
	for _, p := range points {
		t.AddRow(p.row...)
		feats = append(feats, p.feat)
		ys = append(ys, p.y)
	}
	if coef, r2, err := metrics.FitLinear(feats, ys); err == nil {
		t.AddRow("fit", "", "", fmt.Sprintf("a=%.2f b=%.2f c=%.2f", coef[0], coef[1], coef[2]),
			fmt.Sprintf("R²=%.4f", r2), "")
	}
	return t, nil
}

// exploreDuration measures one team exploration of a w×h rectangle with k
// robots (k−1 teammates sleeping at the source get woken for free first).
func exploreDuration(w, h float64, k int) (float64, error) {
	var sleepers []geom.Point
	for i := 0; i < k-1; i++ {
		sleepers = append(sleepers, geom.Origin)
	}
	// One probe robot far inside so the sweep has something to find.
	sleepers = append(sleepers, geom.Pt(w*0.7, h*0.6))
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	var dur float64
	var rerr error
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		var members []int
		for i := 1; i < k; i++ {
			p.Wake(i, nil)
			members = append(members, i)
		}
		start := p.Now()
		res, err := explore.Rect(p, members, geom.RectWH(geom.Origin, w, h), geom.Pt(w/2, h/2))
		found := len(res.Asleep) > 0
		explore.Recycle(p, res)
		if err != nil {
			rerr = err
			return
		}
		if !found {
			rerr = fmt.Errorf("probe robot not found in %vx%v sweep", w, h)
			return
		}
		dur = p.Now() - start
	})
	if _, err := e.Run(); err != nil {
		return 0, err
	}
	return dur, rerr
}

// F5Construction regenerates Figure 5's content: the Theorem 2 layout
// statistics — |C| against the Lemma 12 bound 1+ρ²/ℓ², and the Lemma 13
// ℓ-connectivity of the disk-grid instances.
func (r *Runner) F5Construction(scale Scale) (*report.Table, error) {
	type cfg struct{ rho, ell float64 }
	cfgs := []cfg{{8, 2}, {16, 2}}
	if scale == Full {
		cfgs = []cfg{{8, 2}, {16, 2}, {32, 4}, {48, 4}}
	}
	t := report.NewTable("F5 — Theorem 2 construction (Lemmas 12–13)",
		"rho", "ell", "|C|", "bound 1+ρ²/ℓ²", "ℓ* of disk-grid", "ℓ-connected")
	err := Sweep(r, t, cfgs, func(_ *Trial, c cfg) (Row, error) {
		centers := instance.CentersC(c.rho, c.ell)
		in := instance.DiskGridStatic(c.rho, c.ell, 1<<20)
		p := in.ParamsIn(nil)
		return Row{c.rho, c.ell, len(centers), 1 + c.rho*c.rho/(c.ell*c.ell),
			p.Ell, fmt.Sprintf("%v", p.Ell <= c.ell+1e-9)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// L2WakeTree measures Lemma 2's constant: the worst makespan/width ratio of
// the centralized wake-up tree over random squares (paper constant 5 with
// the [BCGH24] tree; ours is the ≈10.1 longest-side-bisection constant).
func (r *Runner) L2WakeTree(scale Scale) (*report.Table, error) {
	widths := []float64{4, 16}
	trials := 20
	if scale == Full {
		widths = []float64{4, 16, 64, 256}
		trials = 60
	}
	t := report.NewTable("L2 — wake-up tree makespan/width (paper: ≤5R; ours: ≤~10.1R)",
		"width", "trials", "mean ratio", "max ratio")
	err := Sweep(r, t, widths, func(tr *Trial, w float64) (Row, error) {
		var ratios []float64
		for trial := 0; trial < trials; trial++ {
			n := 10 + tr.RNG.Intn(100)
			ts := make([]wakeup.Target, n)
			for i := range ts {
				ts[i] = wakeup.Target{ID: i + 1,
					Pos: geom.Pt((tr.RNG.Float64()-0.5)*w, (tr.RNG.Float64()-0.5)*w)}
			}
			m := wakeup.MakespanIn(nil, geom.Origin, wakeup.BuildTreeIn(nil, geom.Origin, ts))
			ratios = append(ratios, m/w)
		}
		return Row{w, trials, metrics.Mean(ratios), metrics.Max(ratios)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// L5DFSampling measures Lemma 5's DFSampling time against the recruit count
// on chain instances. The lemma's single-robot-start regime O(ℓ²·log k) only
// covers k ≤ 4ℓ (beyond that the backtracking term 2kℓ stops being O(ℓ²)),
// so the sweep keeps k within 4ℓ for each ℓ.
func (r *Runner) L5DFSampling(scale Scale) (*report.Table, error) {
	type cfg struct {
		ell    float64
		target int
	}
	cfgs := []cfg{{2, 4}, {2, 8}, {4, 8}, {4, 16}}
	if scale == Full {
		cfgs = []cfg{{2, 4}, {2, 8}, {4, 8}, {4, 16}, {8, 16}, {8, 32}}
	}
	t := report.NewTable("L5 — DFSampling time vs recruits (chain; model ℓ²·lg k, valid for k ≤ 4ℓ)",
		"ell", "recruit target", "recruited", "duration", "model ℓ²lg(k)", "ratio")
	err := Sweep(r, t, cfgs, func(_ *Trial, c cfg) (Row, error) {
		dur, got, err := dfsampleDuration(c.ell, c.target)
		if err != nil {
			return nil, err
		}
		model := c.ell * c.ell * lg2(float64(c.target))
		return Row{c.ell, c.target, got, dur, model, dur / model}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func dfsampleDuration(ell float64, target int) (float64, int, error) {
	// A chain long enough to saturate the largest target, spaced 1.5ℓ so
	// every consecutive pair is a 2ℓ-hop and every sample recruits.
	var pts []geom.Point
	for i := 1; i <= 2*target+4; i++ {
		pts = append(pts, geom.Pt(float64(i)*1.5*ell, 0))
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: pts})
	region := geom.Sq(geom.Pt(float64(len(pts))*ell, 0), 8*float64(len(pts))*ell)
	var dur float64
	var got int
	var rerr error
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		start := p.Now()
		out, err := sampling.Run(p, nil, sampling.Request{
			Region:        region.Rect(),
			Square:        region,
			Ell:           ell,
			RecruitTarget: target,
			Seeds:         []sampling.Seed{{Pos: geom.Origin, AsleepID: -1}},
		})
		if err != nil {
			rerr = err
			return
		}
		dur = p.Now() - start
		got = len(out.Recruits)
	})
	if _, err := e.Run(); err != nil {
		return 0, 0, err
	}
	return dur, got, rerr
}

// XiSanity cross-checks the diskgraph parameter computations on the
// experiment families (an internal consistency row used by dftp-bench).
// Family construction is serial (the walk family consumes a shared RNG
// sequence); the parameter computations fan out per family.
func (r *Runner) XiSanity() (*report.Table, error) {
	t := report.NewTable("Parameter sanity (Proposition 1 on experiment families)",
		"instance", "ell*", "rho*", "xi", "ok: ℓ*≤ρ*≤ξ≤nℓ*")
	rng := r.trial(0).RNG
	families := []*instance.Instance{
		instance.Line(24, 1.5),
		instance.GridSwarm(5, 2),
		instance.RandomWalk(rng, 40, 0.9),
		instance.DiskGridStatic(10, 2, 40),
	}
	err := Sweep(r, t, families, func(_ *Trial, in *instance.Instance) (Row, error) {
		p := in.ParamsIn(nil)
		ok := diskgraph.CheckProposition1(in.Source, in.Points)
		return Row{in.Name, p.Ell, p.Rho, p.Xi, fmt.Sprintf("%v", ok)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// All runs every experiment at the given scale, returning the tables in
// presentation order. Used by cmd/dftp-bench. The tables themselves are
// generated sequentially; parallelism lives inside each table's trial sweep,
// which keeps the memory high-water mark at one experiment.
func (r *Runner) All(scale Scale) ([]*report.Table, error) {
	type gen struct {
		name string
		fn   func(Scale) (*report.Table, error)
	}
	gens := []gen{
		{"E1a", r.E1RhoSweep}, {"E1b", r.E1EllSweep}, {"E2", r.E2EnergyThreshold},
		{"E3", r.E3AGrid}, {"E4", r.E4AWave}, {"E5", r.E5LowerBound}, {"E6", r.E6Path},
		{"E7", r.E7Crossover},
		{"F1", r.F1Phases}, {"F4", r.F4Explore}, {"F5", r.F5Construction},
		{"F8", r.F8FaultResilience},
		{"L2", r.L2WakeTree}, {"L5", r.L5DFSampling},
		{"P1", r.P1Portfolio},
		{"M1", r.M1Metrics},
		{"H1", r.H1Heterogeneous},
	}
	var out []*report.Table
	for _, g := range gens {
		tb, err := g.fn(scale)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", g.name, err)
		}
		out = append(out, tb)
	}
	sanity, err := r.XiSanity()
	if err != nil {
		return nil, err
	}
	out = append(out, sanity)
	return out, nil
}

// All runs every experiment on a fresh default runner (GOMAXPROCS workers,
// DefaultSeed).
func All(scale Scale) ([]*report.Table, error) {
	return NewRunner().All(scale)
}
