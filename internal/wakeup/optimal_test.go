package wakeup

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

func TestOptimalEmpty(t *testing.T) {
	if m := OptimalMakespan(geom.Origin, nil); m != 0 {
		t.Errorf("empty optimal = %v", m)
	}
}

func TestOptimalSingle(t *testing.T) {
	m := OptimalMakespan(geom.Origin, []Target{{ID: 1, Pos: geom.Pt(3, 4)}})
	if math.Abs(m-5) > 1e-12 {
		t.Errorf("optimal = %v, want 5", m)
	}
}

func TestOptimalTwoOpposite(t *testing.T) {
	// Two targets on opposite sides at distance 1: wake one (cost 1), then
	// waker and woken both cross (cost 2): makespan 3. No tree does better.
	ts := []Target{
		{ID: 1, Pos: geom.Pt(1, 0)},
		{ID: 2, Pos: geom.Pt(-1, 0)},
	}
	m := OptimalMakespan(geom.Origin, ts)
	if math.Abs(m-3) > 1e-9 {
		t.Errorf("optimal = %v, want 3", m)
	}
}

func TestOptimalLineSplit(t *testing.T) {
	// Four targets at ±1, ±2 on the x-axis. One optimal plan: wake +1 (1),
	// split — one robot continues to +2 (1), the other crosses to −1 (2)
	// then −2 (1): makespan 1+2+1 = 4.
	ts := []Target{
		{ID: 1, Pos: geom.Pt(1, 0)},
		{ID: 2, Pos: geom.Pt(2, 0)},
		{ID: 3, Pos: geom.Pt(-1, 0)},
		{ID: 4, Pos: geom.Pt(-2, 0)},
	}
	m := OptimalMakespan(geom.Origin, ts)
	if math.Abs(m-4) > 1e-9 {
		t.Errorf("optimal = %v, want 4", m)
	}
}

func TestOptimalIsLowerBoundForBuildTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(7)
		ts := make([]Target, n)
		for i := range ts {
			ts[i] = Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)}
		}
		opt := OptimalMakespan(geom.Origin, ts)
		heur := MakespanIn(nil, geom.Origin, BuildTreeIn(nil, geom.Origin, ts))
		if heur < opt-1e-9 {
			t.Fatalf("trial %d: heuristic %v beats 'optimal' %v — DP broken", trial, heur, opt)
		}
		if opt > 0 {
			if r := heur / opt; r > worst {
				worst = r
			}
		}
	}
	// The bisection tree is an O(1)-approximation; on small random inputs
	// it should stay well within a small constant of optimal.
	if worst > 4 {
		t.Errorf("approximation ratio reached %v, want ≤ 4", worst)
	}
}

func TestOptimalMatchesBruteForceTiny(t *testing.T) {
	// n=3 exhaustive check: enumerate all wake orders with all split
	// choices by brute force over labeled binary trees.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		ts := make([]Target, 3)
		for i := range ts {
			ts[i] = Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2)}
		}
		want := bruteOptimal3(geom.Origin, ts)
		got := OptimalMakespan(geom.Origin, ts)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: DP %v vs brute %v", trial, got, want)
		}
	}
}

// bruteOptimal3 enumerates every schedule for exactly three targets.
func bruteOptimal3(start geom.Point, ts []Target) float64 {
	best := math.Inf(1)
	d := func(a, b geom.Point) float64 { return a.Dist(b) }
	for first := 0; first < 3; first++ {
		var rest []Target
		for i, t := range ts {
			if i != first {
				rest = append(rest, t)
			}
		}
		p1 := ts[first].Pos
		t1 := d(start, p1)
		// Option A: split — each robot takes one remaining target.
		split := t1 + math.Max(d(p1, rest[0].Pos), d(p1, rest[1].Pos))
		// Option B/C: one robot chains both, in either order.
		chain1 := t1 + d(p1, rest[0].Pos) + d(rest[0].Pos, rest[1].Pos)
		chain2 := t1 + d(p1, rest[1].Pos) + d(rest[1].Pos, rest[0].Pos)
		// Option D: waker takes one, woken takes other, but also chains are
		// covered; the two-robot parallel chain split where one robot takes
		// both and the other one: covered by A/B/C since with 2 targets and
		// 2 robots those are all tree shapes.
		for _, v := range []float64{split, chain1, chain2} {
			if v < best {
				best = v
			}
		}
	}
	return best
}

func TestOptimalPanicsAboveLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("should panic above MaxOptimalTargets")
		}
	}()
	ts := make([]Target, MaxOptimalTargets+1)
	for i := range ts {
		ts[i] = Target{ID: i + 1, Pos: geom.Pt(float64(i), 0)}
	}
	OptimalMakespan(geom.Origin, ts)
}
