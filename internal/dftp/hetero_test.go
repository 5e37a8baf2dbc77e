package dftp

import (
	"context"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

// Every algorithm must complete the wake-up on heterogeneous instances —
// slow robots stretch the schedule (the slot bounds scale by 1/min-speed)
// but never break it — under every built-in metric, with the physics floor
// makespan ≥ max_i d_m(source, pᵢ)/s_max respected.
func TestAlgorithmsSolveHeterogeneous(t *testing.T) {
	algs := []Algorithm{ASeparator{}, AGrid{}, AWave{}}
	metrics := []string{"", "l1", "linf"}
	// Capacities generous enough to never bind: the property under test is
	// that speed heterogeneity alone cannot break a schedule.
	fams := []string{"line+speedband:0.25", "walk+speedband:0.5+capband:500", "chain+speedband:0.2"}
	for _, fam := range fams {
		in, err := instance.Family(fam, 16, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, mn := range metrics {
			var m geom.Metric
			if mn != "" {
				if m, err = geom.ParseMetric(mn); err != nil {
					t.Fatal(err)
				}
			}
			tup := TupleForIn(m, in)
			mm := geom.MetricOrL2(m)
			smax := 1.0
			for _, p := range in.Profiles {
				if p.Speed > smax {
					smax = p.Speed
				}
			}
			var floor float64
			for _, pt := range in.Points {
				if d := mm.Dist(in.Source, pt) / smax; d > floor {
					floor = d
				}
			}
			for _, alg := range algs {
				res, rep, err := SolveFaulted(context.Background(), nil, m, alg, in, tup, 0, nil, nil)
				if err != nil {
					t.Fatalf("%s on %s under %s: %v", alg.Name(), in.Name, mm.Name(), err)
				}
				if !res.AllAwake {
					t.Fatalf("%s on %s under %s: %d robots still asleep",
						alg.Name(), in.Name, mm.Name(), in.N()-res.Awakened)
				}
				if len(rep.Misses) > 0 {
					t.Fatalf("%s on %s under %s: schedule miss: %s",
						alg.Name(), in.Name, mm.Name(), rep.Misses[0])
				}
				if res.Makespan < floor-1e-9 {
					t.Fatalf("%s on %s under %s: makespan %v beats the physics floor %v",
						alg.Name(), in.Name, mm.Name(), res.Makespan, floor)
				}
			}
		}
	}
}

// Tight per-robot capacities may leave robots asleep — couriers die on the
// way — but never crash: the solve returns, reports the shortfall in the
// result, and records every halt as a violation. (A stale team roster after
// a mid-schedule death used to panic the strict-handoff Escort check.)
func TestHeteroTightCapacitiesDegradeGracefully(t *testing.T) {
	in, err := instance.Family("walk+speedband:0.5+capband:50", 16, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}, AWave{}} {
		res, _, err := SolveFaulted(context.Background(), nil, nil, alg, in, TupleFor(in), 0, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !res.AllAwake && len(res.Violations) == 0 {
			t.Errorf("%s: incomplete wake-up with no recorded budget violations", alg.Name())
		}
	}
}

// Slowing the swarm must never shrink any algorithm's makespan: the same
// instance at speedbands 1 (plain), 0.5, 0.25 gives nondecreasing makespans,
// and the plain run matches the all-unit-profile run exactly (bit-identity
// of the homogeneous path).
func TestHeteroMakespanMonotoneInSlowdown(t *testing.T) {
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}, AWave{}} {
		prev := 0.0
		for _, band := range []string{"", "+speedband:0.5", "+speedband:0.25"} {
			in, err := instance.Family("line"+band, 20, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Uniform slowdown: overwrite the banded profiles with the band
			// floor so the comparison is exact, not distributional.
			if band != "" {
				s := 0.5
				if band == "+speedband:0.25" {
					s = 0.25
				}
				for i := range in.Profiles {
					in.Profiles[i] = instance.Profile{Speed: s}
				}
			}
			res, _ := runAlg(t, alg, in, 0)
			if res.Makespan < prev-1e-9 {
				t.Fatalf("%s: slowing robots improved makespan: %v after %v",
					alg.Name(), res.Makespan, prev)
			}
			prev = res.Makespan
		}
	}
}

// All-unit profiles are the homogeneous run, bit for bit: same makespan,
// duration, and energy from every algorithm.
func TestHeteroUnitProfilesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := instance.RandomWalk(rng, 18, 0.9)
	unit := *in
	unit.Profiles = make([]instance.Profile, in.N())
	for i := range unit.Profiles {
		unit.Profiles[i] = instance.Profile{Speed: 1}
	}
	for _, alg := range []Algorithm{ASeparator{}, AGrid{}, AWave{}} {
		a, _ := runAlg(t, alg, in, 0)
		b, _ := runAlg(t, alg, &unit, 0)
		if a.Makespan != b.Makespan || a.Duration != b.Duration || a.TotalEnergy != b.TotalEnergy {
			t.Fatalf("%s: unit profiles perturbed the run: makespan %v vs %v, duration %v vs %v, energy %v vs %v",
				alg.Name(), a.Makespan, b.Makespan, a.Duration, b.Duration, a.TotalEnergy, b.TotalEnergy)
		}
	}
}
