package portfolio

import (
	"reflect"
	"sync"
	"testing"

	"freezetag/internal/dftp"
)

// TestObserveReportsEveryRacer: a full (no early-stop) race observes one
// RacerObservation per entrant, each with a positive wall time and no
// abort.
func TestObserveReportsEveryRacer(t *testing.T) {
	in := walkInstance(1)
	tup := dftp.TupleForIn(nil, in)
	var mu sync.Mutex
	seen := make(map[int]RacerObservation)
	p := Portfolio{Algorithms: allFour(), Seed: 7}
	if _, err := Race(p, in, tup, 0, Options{Workers: 2, Observe: func(ob RacerObservation) {
		mu.Lock()
		seen[ob.Index] = ob
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(p.Algorithms) {
		t.Fatalf("observed %d racers, want %d", len(seen), len(p.Algorithms))
	}
	for i, ob := range seen {
		if ob.Aborted {
			t.Errorf("racer %d observed as aborted in a race without early stop", i)
		}
		if ob.Wall <= 0 {
			t.Errorf("racer %d wall time = %v, want > 0", i, ob.Wall)
		}
		if ob.Algorithm != p.Algorithms[i].Name() {
			t.Errorf("racer %d algorithm = %q, want %q", i, ob.Algorithm, p.Algorithms[i].Name())
		}
		if ob.CancelLatency != 0 {
			t.Errorf("racer %d cancel latency = %v, want 0 (never cancelled)", i, ob.CancelLatency)
		}
	}
}

// TestObserveCancelledRacers: under a trivially satisfiable first-under
// objective at one worker, racer 0 wins and every later racer is skipped —
// the observations must say so, with zero wall time for never-started runs.
func TestObserveCancelledRacers(t *testing.T) {
	in := walkInstance(1)
	tup := dftp.TupleForIn(nil, in)
	var mu sync.Mutex
	var obs []RacerObservation
	p := Portfolio{Algorithms: allFour(), Objective: FirstUnder{MaxMakespan: 1e9}, Seed: 7}
	if _, err := Race(p, in, tup, 0, Options{Workers: 1, Observe: func(ob RacerObservation) {
		mu.Lock()
		obs = append(obs, ob)
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(p.Algorithms) {
		t.Fatalf("observed %d racers, want %d", len(obs), len(p.Algorithms))
	}
	aborted := 0
	for _, ob := range obs {
		if ob.Aborted {
			aborted++
			if ob.Wall != 0 {
				// At one worker the race is decided before any later racer
				// starts, so aborted racers were skipped, not stopped mid-run.
				t.Errorf("racer %d skipped but reports wall time %v", ob.Index, ob.Wall)
			}
		}
	}
	if aborted != len(p.Algorithms)-1 {
		t.Errorf("aborted = %d, want %d", aborted, len(p.Algorithms)-1)
	}
}

// TestObserveDoesNotChangeOutcome: racing with and without an observer
// produces identical deterministic results.
func TestObserveDoesNotChangeOutcome(t *testing.T) {
	in := walkInstance(1)
	tup := dftp.TupleForIn(nil, in)
	p := Portfolio{Algorithms: allFour(), Seed: 7}
	ref, err := Race(p, in, tup, 0, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Race(p, in, tup, 0, Options{Workers: 2, Observe: func(RacerObservation) {}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Winner != ref.Winner || !reflect.DeepEqual(got.Racers, ref.Racers) {
		t.Fatal("observer changed the race outcome")
	}
}
