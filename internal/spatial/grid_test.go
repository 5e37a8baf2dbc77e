package spatial

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"freezetag/internal/geom"
)

func TestInsertRemove(t *testing.T) {
	g := NewGrid(1)
	g.Insert(1, geom.Pt(0.5, 0.5))
	g.Insert(2, geom.Pt(1.5, 0.5))
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
	p, ok := g.At(1)
	if !ok || !p.Eq(geom.Pt(0.5, 0.5)) {
		t.Fatalf("At(1) = %v, %v", p, ok)
	}
	g.Remove(1)
	if g.Len() != 1 {
		t.Fatalf("Len after remove = %d", g.Len())
	}
	if _, ok := g.At(1); ok {
		t.Fatal("removed item still present")
	}
	g.Remove(99) // no-op
}

func TestInsertMoves(t *testing.T) {
	g := NewGrid(1)
	g.Insert(1, geom.Pt(0, 0))
	g.Insert(1, geom.Pt(10, 10))
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	ids := g.Within(nil, geom.Pt(10, 10), 0.1)
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Within after move = %v", ids)
	}
	if got := g.Within(nil, geom.Pt(0, 0), 0.1); len(got) != 0 {
		t.Fatalf("stale position still indexed: %v", got)
	}
}

func TestWithin(t *testing.T) {
	g := NewGrid(1)
	g.Insert(1, geom.Pt(0, 0))
	g.Insert(2, geom.Pt(1, 0))   // exactly on radius
	g.Insert(3, geom.Pt(1.5, 0)) // outside
	g.Insert(4, geom.Pt(0, -0.5))
	ids := g.Within(nil, geom.Pt(0, 0), 1)
	sort.Ints(ids)
	want := []int{1, 2, 4}
	if len(ids) != len(want) {
		t.Fatalf("Within = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Within = %v, want %v", ids, want)
		}
	}
	if got := g.Within(nil, geom.Pt(0, 0), -1); len(got) != 0 {
		t.Fatalf("negative radius should return nothing, got %v", got)
	}
}

func TestNewGridPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) should panic")
		}
	}()
	NewGrid(0)
}

// Property: Within agrees with a brute-force scan on random configurations.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := NewGrid(0.5 + rng.Float64()*3)
		pts := make(map[int]geom.Point)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			p := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
			pts[i] = p
			g.Insert(i, p)
		}
		q := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
		r := rng.Float64() * 10
		got := g.Within(nil, q, r)
		sort.Ints(got)
		var want []int
		for id, p := range pts {
			if p.Dist(q) <= r+geom.Eps {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Within = %v, brute = %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Within = %v, brute = %v", trial, got, want)
			}
		}
	}
}

// Property (quick): inserting then querying with radius 0 finds the item.
func TestInsertFindSelf(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		x, y = math.Mod(x, 1e4), math.Mod(y, 1e4)
		g := NewGrid(1)
		g.Insert(1, geom.Pt(x, y))
		ids := g.Within(nil, geom.Pt(x, y), 0)
		return len(ids) == 1 && ids[0] == 1
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// churnItems is the brute-force mirror of a grid under churn: the live
// items and their positions.
type churnItems map[int]geom.Point

// check compares Within against a brute-force scan of the live items,
// querying at every live item and at a few random points.
func (live churnItems) check(t *testing.T, rng *rand.Rand, g *Grid, m geom.Metric, step int) {
	t.Helper()
	queries := make([]geom.Point, 0, len(live)+3)
	for _, p := range live {
		queries = append(queries, p)
	}
	for range 3 {
		queries = append(queries, geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12))
	}
	var got, want []int
	for _, q := range queries {
		r := rng.Float64() * 2.5
		got = g.Within(got[:0], q, r)
		sort.Ints(got)
		want = want[:0]
		for id, p := range live {
			if m.Dist(p, q) <= r+geom.Eps {
				want = append(want, id)
			}
		}
		sort.Ints(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Within(%v, %g) = %v, brute force %v", step, q, r, got, want)
		}
	}
	if g.Len() != len(live) {
		t.Fatalf("step %d: Len = %d, want %d", step, g.Len(), len(live))
	}
}

// Property: under random sequences of inserts, moves, removals and resets,
// Within agrees with a brute-force scan after every step, under every
// metric family. The sequences mix in the patterns that open, empty and
// recycle cells: an item sweeping fresh cells, two items oscillating
// between two cells, removals that empty cells, and a pair of items whose
// cell indices differ by exactly 2³², which share a key bucket.
func TestWithinMatchesBruteForceUnderChurn(t *testing.T) {
	const (
		sweeper = 100 + iota
		oscA
		oscB
		aliasLo
		aliasHi
	)
	for _, m := range []geom.Metric{geom.L2, geom.L1, geom.LInf, mustLp(t, 3)} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			g := NewGridIn(m, 1)
			live := churnItems{}
			put := func(id int, p geom.Point) {
				g.Insert(id, p)
				live[id] = p
			}
			putAliased := func() {
				put(aliasLo, geom.Pt(-3.5, 2.25))
				put(aliasHi, geom.Pt(-3.5+(1<<32), 2.25))
			}
			putAliased()
			sweep := 0
			for step := 0; step < 1000; step++ {
				switch op := rng.Intn(20); {
				case op < 7: // insert or move an ordinary item
					put(rng.Intn(24), geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
				case op < 11: // the sweeper steps into the next cell of a 16-wide lattice
					put(sweeper, geom.Pt(float64(sweep%16)-8+0.5, float64(sweep/16%16)-8+0.5))
					sweep++
				case op < 14: // the pair swaps between two adjacent cells
					a, b := geom.Pt(1.5, -0.5), geom.Pt(2.5, -0.5)
					if step%2 == 0 {
						a, b = b, a
					}
					put(oscA, a)
					put(oscB, b)
				case op < 19 && len(live) > 0: // remove a random live item, usually emptying its cell
					ids := slices.Sorted(maps.Keys(live))
					id := ids[rng.Intn(len(ids))]
					g.Remove(id)
					delete(live, id)
				default:
					g.Reset(m)
					clear(live)
					putAliased()
				}
				live.check(t, rng, g, m, step)
			}
		})
	}
}

// The index holds occupied cells only: one item sweeping 10,000 fresh cells
// leaves one cell behind, Reset leaves none, and once the free list is warm
// the sweep — a move and a radius-1 Within per cell, the simulator's Look
// and move loop — allocates nothing.
func TestGridIndexesOccupiedCellsOnly(t *testing.T) {
	g := NewGrid(1)
	var buf []int
	sweep := func() {
		for i := range 10000 {
			p := geom.Pt(float64(i%100)+0.5, float64(i/100)+0.5)
			g.Insert(1, p)
			buf = g.Within(buf[:0], p, 1)
		}
	}
	sweep()
	if n := len(g.cells); n != 1 {
		t.Fatalf("after a 10,000-cell sweep the index holds %d cells, want 1", n)
	}
	g.Reset(nil)
	if n := len(g.cells); n != 0 {
		t.Fatalf("after Reset the index holds %d cells, want 0", n)
	}
	if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
		t.Fatalf("a warmed sweep allocates %.1f times, want 0", allocs)
	}
}

// A pooled grid re-populated with one crowded point set — robot teams
// gathered in a few cells among scattered single robots, as AGrid leaves
// them — settles into allocation-free rounds whatever order the points come
// back in: the member storage a crowded cell grew goes to whichever cell
// grows next, not to whichever cell reuses the crowded cell's record.
func TestGridResetKeepsGrownStorageForCrowdedCells(t *testing.T) {
	var pts []geom.Point
	for gi, size := range []int{40, 12, 5, 3} {
		for range size {
			pts = append(pts, geom.Pt(float64(3*gi)+0.5, -2.5))
		}
	}
	for i := range 150 {
		pts = append(pts, geom.Pt(float64(i%15)*2+0.5, float64(i/15)*2+0.5))
	}
	rng := rand.New(rand.NewSource(17))
	order := rng.Perm(len(pts))
	g := NewGrid(1)
	round := func() {
		g.Reset(nil)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			g.Insert(i, pts[i])
		}
	}
	for range 10 {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a warmed re-population allocates %.1f times, want 0", allocs)
	}
	if n := len(g.Within(nil, geom.Pt(0.5, -2.5), 0.1)); n != 40 {
		t.Fatalf("crowded cell holds %d items, want 40", n)
	}
}
