package portfolio

import (
	"reflect"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
)

// Races under a non-default metric keep the full determinism contract —
// identical winner and racer stats at any worker count — and actually
// simulate in the metric: scores differ from the ℓ2 race on a diagonal-rich
// instance.
func TestRaceMetricDeterministicAndDistinct(t *testing.T) {
	in := walkInstance(3)
	for _, m := range []geom.Metric{geom.L1, geom.LInf} {
		tup := dftp.TupleForIn(m, in)
		p := Portfolio{Algorithms: allFour(), Objective: MinMakespan{}, Seed: 7}
		ref, err := Race(p, in, tup, 0, Options{Workers: 1, Metric: m})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, workers := range []int{2, 4} {
			got, err := Race(p, in, tup, 0, Options{Workers: workers, Metric: m})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if got.Winner != ref.Winner || !reflect.DeepEqual(got.Racers, ref.Racers) {
				t.Fatalf("%s workers=%d: race not schedule-independent", m.Name(), workers)
			}
		}
		if !ref.Res.AllAwake {
			t.Fatalf("%s: winning run left robots asleep", m.Name())
		}
		// Same instance raced under ℓ2 must score differently (the walk
		// instance has diagonal steps, so metric distances differ).
		l2, err := Race(p, in, dftp.TupleForIn(nil, in), 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if l2.Res.Makespan == ref.Res.Makespan {
			t.Errorf("%s makespan equals ℓ2 makespan (%g) — metric not reaching the racers?",
				m.Name(), l2.Res.Makespan)
		}
	}
}
