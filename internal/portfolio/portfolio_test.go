package portfolio

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
)

func allFour() []dftp.Algorithm {
	return []dftp.Algorithm{dftp.ASeparator{}, dftp.AGrid{}, dftp.AWave{}, dftp.ASeparatorAuto{}}
}

func walkInstance(seed int64) *instance.Instance {
	return instance.RandomWalk(rand.New(rand.NewSource(seed)), 24, 0.9)
}

// The acceptance criterion of the PR: a race's winner and racer stats are
// decided by portfolio order and simulation content, never by scheduling —
// so any worker count produces the identical Result. Run with -race.
func TestRaceDeterministicAcrossWorkers(t *testing.T) {
	in := walkInstance(1)
	tup := dftp.TupleForIn(nil, in)
	objectives := []Objective{
		MinMakespan{},
		MinEnergy{},
		Weighted{WMakespan: 0.5, WEnergy: 0.5},
		FirstUnder{MaxMakespan: 1e9},                   // everyone satisfies: racer 0 wins, rest cancelled
		FirstUnder{MaxMakespan: 1e-9, MaxEnergy: 1e-9}, // nobody satisfies: fallback
	}
	for _, obj := range objectives {
		p := Portfolio{Algorithms: allFour(), Objective: obj, Seed: 7}
		ref, err := Race(p, in, tup, 0, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", obj.Name(), err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Race(p, in, tup, 0, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", obj.Name(), workers, err)
			}
			if got.Winner != ref.Winner || got.Satisfied != ref.Satisfied || got.Cancelled != ref.Cancelled {
				t.Fatalf("%s workers=%d: winner/satisfied/cancelled = %d/%v/%d, want %d/%v/%d",
					obj.Name(), workers, got.Winner, got.Satisfied, got.Cancelled,
					ref.Winner, ref.Satisfied, ref.Cancelled)
			}
			if !reflect.DeepEqual(got.Racers, ref.Racers) {
				t.Fatalf("%s workers=%d: racer stats differ:\n%+v\nvs\n%+v",
					obj.Name(), workers, got.Racers, ref.Racers)
			}
			if !reflect.DeepEqual(got.Res, ref.Res) {
				t.Fatalf("%s workers=%d: winning result differs", obj.Name(), workers)
			}
		}
	}
}

// first-under-budget ends the race at the first (in portfolio order)
// satisfying racer and cancels everyone behind it. Serially, the cancelled
// racers provably never simulate (Aborted counts them).
func TestFirstUnderCancelsLosers(t *testing.T) {
	in := walkInstance(2)
	tup := dftp.TupleForIn(nil, in)
	p := Portfolio{Algorithms: allFour(), Objective: FirstUnder{MaxMakespan: 1e9}}
	res, err := Race(p, in, tup, 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 0 || !res.Satisfied {
		t.Fatalf("winner=%d satisfied=%v, want racer 0 to win immediately", res.Winner, res.Satisfied)
	}
	if res.Cancelled != 3 {
		t.Fatalf("cancelled=%d, want 3", res.Cancelled)
	}
	if res.Aborted != 3 {
		t.Fatalf("serial race aborted %d racers, want 3 (losers must not simulate)", res.Aborted)
	}
	for _, rr := range res.Racers[1:] {
		if rr.Status != StatusCancelled || rr.Makespan != 0 || rr.Satisfied {
			t.Fatalf("loser stats leak scheduling-dependent data: %+v", rr)
		}
	}
	if res.Racers[0].Status != StatusWon || !res.Racers[0].Satisfied {
		t.Fatalf("winner stats: %+v", res.Racers[0])
	}
}

// Portfolio order is priority: a later racer that satisfies the target only
// wins if every earlier racer completed without satisfying it.
func TestFirstUnderRespectsOrder(t *testing.T) {
	in := walkInstance(3)
	tup := dftp.TupleForIn(nil, in)
	// Find two algorithms with distinct makespans and order the worse first.
	var mks []float64
	for _, alg := range allFour() {
		res, _, err := dftp.Solve(alg, in, tup, 0)
		if err != nil {
			t.Fatal(err)
		}
		mks = append(mks, res.Makespan)
	}
	worse, better := -1, -1
	for i := range mks {
		for j := range mks {
			if mks[i] > mks[j] {
				worse, better = i, j
			}
		}
	}
	if worse < 0 {
		t.Skip("all four algorithms tie on this instance")
	}
	cap := (mks[worse] + mks[better]) / 2
	p := Portfolio{
		Algorithms: []dftp.Algorithm{allFour()[worse], allFour()[better], allFour()[worse]},
		Objective:  FirstUnder{MaxMakespan: cap},
	}
	res, err := Race(p, in, tup, 0, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 1 || !res.Satisfied {
		t.Fatalf("winner=%d satisfied=%v, want racer 1 (first satisfying in order)", res.Winner, res.Satisfied)
	}
	if res.Racers[0].Status != StatusCompleted || res.Racers[0].Satisfied {
		t.Fatalf("racer 0 (over cap) should complete unsatisfied: %+v", res.Racers[0])
	}
	if res.Racers[2].Status != StatusCancelled {
		t.Fatalf("racer 2 should be cancelled: %+v", res.Racers[2])
	}
}

// When nobody meets the caps the race degrades to the objective's score over
// the completed runs, marked unsatisfied, with nothing cancelled.
func TestFirstUnderFallback(t *testing.T) {
	in := walkInstance(4)
	tup := dftp.TupleForIn(nil, in)
	p := Portfolio{Algorithms: allFour(), Objective: FirstUnder{MaxMakespan: 1e-9}}
	res, err := Race(p, in, tup, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied || res.Cancelled != 0 {
		t.Fatalf("satisfied=%v cancelled=%d, want unsatisfied fallback", res.Satisfied, res.Cancelled)
	}
	for i, rr := range res.Racers {
		if i == res.Winner {
			continue
		}
		if rr.Status != StatusCompleted {
			t.Fatalf("racer %d: %+v", i, rr)
		}
		if rr.Makespan < res.Racers[res.Winner].Makespan {
			t.Fatalf("fallback winner is not min-makespan: %+v beats %+v", rr, res.Racers[res.Winner])
		}
	}
}

// The winner under each pure objective matches a direct argmin over
// individual solves (the portfolio adds concurrency, never semantics).
func TestWinnerMatchesDirectArgmin(t *testing.T) {
	in := walkInstance(5)
	tup := dftp.TupleForIn(nil, in)
	for _, obj := range []Objective{MinMakespan{}, MinEnergy{}, Weighted{WMakespan: 1, WEnergy: 2}} {
		best, bestScore := -1, 0.0
		for i, alg := range allFour() {
			res, _, err := dftp.Solve(alg, in, tup, 0)
			if err != nil {
				t.Fatal(err)
			}
			if s := obj.Score(res); best < 0 || s < bestScore {
				best, bestScore = i, s
			}
		}
		res, err := Race(Portfolio{Algorithms: allFour(), Objective: obj}, in, tup, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner != best {
			t.Fatalf("%s: portfolio winner %d, direct argmin %d", obj.Name(), res.Winner, best)
		}
		if res.Racers[best].Score != bestScore {
			t.Fatalf("%s: winner score %v, want %v", obj.Name(), res.Racers[best].Score, bestScore)
		}
	}
}

// Tracing records the winning run's events without changing the outcome.
func TestTraceRecordsWinner(t *testing.T) {
	in := walkInstance(6)
	tup := dftp.TupleForIn(nil, in)
	p := Portfolio{Algorithms: allFour(), Objective: MinMakespan{}}
	plain, err := Race(p, in, tup, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Race(p, in, tup, 0, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Events) != 0 {
		t.Fatal("untraced race recorded events")
	}
	if len(traced.Events) == 0 {
		t.Fatal("traced race recorded no events")
	}
	if traced.Winner != plain.Winner || !reflect.DeepEqual(traced.Racers, plain.Racers) {
		t.Fatal("tracing changed the race outcome")
	}
	wakes := 0
	for _, ev := range traced.Events {
		if ev.Kind == "wake" {
			wakes++
		}
	}
	if wakes != in.N() {
		t.Fatalf("winner trace has %d wakes for n=%d", wakes, in.N())
	}
}

func TestParseObjectiveCanonical(t *testing.T) {
	same := [][]string{
		{"", "min-makespan", "makespan", "Min-Makespan"},
		{"min-energy", "energy"},
		{"weighted", "weighted:0.5,0.5", "weighted: .5 , 0.50 "},
		{"first-under-budget:makespan=120", "first-under:mk=120", "first-under-budget: makespan = 120.0 "},
	}
	for _, group := range same {
		var name string
		for i, s := range group {
			obj, err := ParseObjective(s)
			if err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			if i == 0 {
				name = obj.Name()
			} else if obj.Name() != name {
				t.Fatalf("%q canonicalizes to %q, want %q", s, obj.Name(), name)
			}
		}
	}
	for _, bad := range []string{
		"fastest", "weighted:1", "weighted:a,b", "weighted:0,0", "weighted:-1,2",
		"weighted:nan,nan", "weighted:+inf,0",
		"first-under-budget", "first-under-budget:mk=x", "first-under-budget:rounds=3",
		"first-under-budget:makespan=nan", "first-under-budget:energy=inf",
		"min-makespan:1",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestPortfolioName(t *testing.T) {
	p := Portfolio{Algorithms: []dftp.Algorithm{dftp.AGrid{}, dftp.AWave{}}, Seed: 3}
	name := p.Name()
	for _, want := range []string{"AGrid,AWave", "min-makespan", "seed=3"} {
		if !strings.Contains(name, want) {
			t.Fatalf("descriptor %q missing %q", name, want)
		}
	}
	q := Portfolio{Algorithms: []dftp.Algorithm{dftp.AWave{}, dftp.AGrid{}}, Seed: 3}
	if q.Name() == name {
		t.Fatal("entrant order must be part of the descriptor")
	}
}

func TestRaceNoAlgorithms(t *testing.T) {
	in := walkInstance(7)
	if _, err := Race(Portfolio{}, in, dftp.TupleForIn(nil, in), 0, Options{}); err == nil {
		t.Fatal("empty portfolio raced without error")
	}
}
