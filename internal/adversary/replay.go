package adversary

import (
	"context"
	"fmt"

	"freezetag/internal/dftp"
	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// Theorem2Result reports one adversarial replay experiment.
type Theorem2Result struct {
	// Instance is the final adversarial placement.
	Instance *instance.Instance
	// Makespan is the algorithm's makespan on the final placement.
	Makespan float64
	// Rounds is the number of replay iterations performed.
	Rounds int
}

// Theorem2 realizes the Theorem 2 construction against alg: one hidden robot
// per disk D_c of the connected center family (Figure 5a), placed by replay
// at the last-covered cell of its disk. It returns the hardened instance and
// the algorithm's makespan on it, which Theorem 2 lower-bounds by
// Ω(ρ + ℓ²log(ρ/ℓ)).
func Theorem2(alg dftp.Algorithm, rho, ell float64, n, replays int) (Theorem2Result, error) {
	all := instance.CentersC(rho, ell)
	m := n
	if m > len(all)-1 {
		m = len(all) - 1
	}
	centers := instance.ConnectedCenters(rho, ell, m)
	disks := make([]geom.Disk, len(centers))
	for i, c := range centers {
		disks[i] = geom.DiskAt(c, ell/4)
	}
	// Initial guess: disk centers.
	pts := append([]geom.Point(nil), centers...)
	region := geom.RectWH(geom.Pt(-rho-1, -rho-1), 2*rho+2, 2*rho+2)

	var last sim.Result
	for round := 0; round < replays; round++ {
		inst := &instance.Instance{
			Name:   fmt.Sprintf("thm2-%s-r%d", alg.Name(), round),
			Source: geom.Origin,
			Points: pts,
		}
		tracker := NewTrackerIn(nil, region, ell/16)
		tup := dftp.Tuple{Ell: ell, Rho: rho, N: len(pts)}
		res, rep, err := dftp.SolveFaulted(context.Background(), nil, nil, alg, inst, tup, 0, nil,
			func(ev sim.Event) {
				if ev.Kind == "look" {
					tracker.Mark(ev.Pos, ev.T)
				}
			})
		if err != nil {
			return Theorem2Result{}, fmt.Errorf("adversary: replay %d: %w", round, err)
		}
		if !res.AllAwake {
			return Theorem2Result{}, fmt.Errorf("adversary: replay %d left robots asleep", round)
		}
		if len(rep.Misses) > 0 {
			return Theorem2Result{}, fmt.Errorf("adversary: replay %d schedule miss: %s", round, rep.Misses[0])
		}
		last = res
		// Relocate every hidden robot to the last-covered cell of its disk.
		next := make([]geom.Point, len(pts))
		for i, d := range disks {
			pos, _, _ := tracker.LastCovered(d)
			next[i] = pos
		}
		pts = next
	}
	final := &instance.Instance{
		Name:   fmt.Sprintf("thm2-%s-final", alg.Name()),
		Source: geom.Origin,
		Points: pts,
	}
	return Theorem2Result{Instance: final, Makespan: last.Makespan, Rounds: replays}, nil
}

// Theorem3Result reports one energy-threshold probe.
type Theorem3Result struct {
	Budget    float64
	Found     bool
	Energy    float64 // energy actually spent by the source
	Threshold float64 // the paper's π(ℓ²−1)/2 bound, A·(ℓ²−1)/2 per metric
}

// Theorem3In probes the energy lower bound: a single hidden robot in B(0, ℓ)
// placed at the spot a budget-B spiral searcher covers last. Because the
// spiral trajectory is oblivious (it does not depend on the target until
// discovery), a single replay realizes the exact adversary. Per Theorem 3,
// budgets below π(ℓ²−1)/2 cannot find the robot.
//
// Under metric m the hidden robot lives in the metric ball B_m(0, ℓ), the
// spiral's winding pitch, travel costs, and looks all follow m, and the
// area argument generalizes with the metric's unit-ball area A — sweeping
// B_m(0, ℓ) minus the freebie radius-1 look costs A(ℓ²−1)/2, so that is the
// reported Threshold (2 for ℓ1, π for ℓ2, 4 for ℓ∞).
func Theorem3In(m geom.Metric, ell, budget float64) Theorem3Result {
	m = geom.MetricOrL2(m)
	disk := geom.DiskAt(geom.Origin, ell)
	threshold := geom.UnitBallArea(m) * (ell*ell - 1) / 2
	// The spiral is calibrated in Euclidean radii, but the hidden robot lives
	// in the metric ball: sweep out to its ℓ2 circumradius (ℓ√2 for ℓ∞, whose
	// corners an ℓ2-radius-ℓ spiral would never visit; exactly ℓ for ℓ1/ℓ2).
	sweepR := ell * geom.CircumradiusL2(m)
	region := geom.RectWH(geom.Pt(-sweepR-1, -sweepR-1), 2*sweepR+2, 2*sweepR+2)

	// Pass 1: record what a budget-B spiral covers, with the target far away
	// so the trajectory is the full budget-limited spiral.
	tracker := NewTrackerIn(m, region, ell/32)
	e1 := sim.NewEngine(sim.Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{geom.Pt(4*ell, 4*ell)},
		Budget:   budget,
		Metric:   m,
		Trace: func(ev sim.Event) {
			if ev.Kind == "look" {
				tracker.Mark(ev.Pos, ev.T)
			}
		},
	})
	e1.Spawn(sim.SourceID, func(p *sim.Proc) {
		_, _, _ = explore.Spiral(p, sweepR)
	})
	if _, err := e1.Run(); err != nil {
		return Theorem3Result{Budget: budget, Threshold: threshold}
	}

	// Adversarial placement: last-covered (or uncovered) cell of B_m(0, ℓ).
	target, _, _ := tracker.LastCovered(disk)

	// Pass 2: the actual hunt.
	e2 := sim.NewEngine(sim.Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{target},
		Budget:   budget,
		Metric:   m,
	})
	var found bool
	e2.Spawn(sim.SourceID, func(p *sim.Proc) {
		_, ok, _ := explore.Spiral(p, sweepR)
		found = ok
	})
	res, err := e2.Run()
	out := Theorem3Result{
		Budget:    budget,
		Found:     found,
		Threshold: threshold,
	}
	if err == nil {
		out.Energy = res.MaxEnergy
	}
	return out
}
