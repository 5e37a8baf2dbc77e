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

func TestInsertMoves(t *testing.T) {
	g := NewGridIn(nil, 1)
	g.Insert(1, geom.Pt(0, 0))
	g.Insert(1, geom.Pt(10, 10))
	if g.used != 1 {
		t.Fatalf("after a move the index holds %d cells, want 1", g.used)
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
	g := NewGridIn(nil, 1)
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
			t.Fatal("NewGridIn(nil, 0) should panic")
		}
	}()
	NewGridIn(nil, 0)
}

// Property: Within agrees with a brute-force scan on random configurations.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := NewGridIn(nil, 0.5+rng.Float64()*3)
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
		g := NewGridIn(nil, 1)
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
	indexed := 0
	for _, it := range g.items {
		if it.indexed {
			indexed++
		}
	}
	if indexed != len(live) {
		t.Fatalf("step %d: %d items indexed, want %d", step, indexed, len(live))
	}
	// The table holds exactly the live items' cells, each reachable from
	// its key's home slot: no emptied cell lingers and no deletion broke a
	// probe run.
	cells := map[uint64]bool{}
	for _, p := range live {
		cells[g.key(p)] = true
	}
	occupied := 0
	for i, c := range g.table {
		if len(c.ids) == 0 {
			continue
		}
		occupied++
		if !cells[c.key] || g.slot(c.key) != i {
			t.Fatalf("step %d: slot %d holds cell %#x, live %v, probe finds slot %d", step, i, c.key, cells[c.key], g.slot(c.key))
		}
	}
	if occupied != len(cells) || g.used != len(cells) {
		t.Fatalf("step %d: %d slots occupied, %d counted, want %d cells", step, occupied, g.used, len(cells))
	}
}

// Property: under random sequences of inserts, moves and resets, Within
// agrees with a brute-force scan after every step, under every metric
// family, and the cell table holds exactly the occupied cells. The
// sequences mix in the patterns that open, empty and recycle cells and
// shift table slots: an item sweeping fresh cells, two items oscillating
// between two cells, an item hopping round three cells it leaves empty
// and reopens, moves to distant cells that usually empty the cell left, a
// pair of items whose cell indices differ by exactly 2³², which share a
// key, resets mid-churn, and ids far beyond the grid's capacity hint, so
// the item index and the table grow on demand.
func TestWithinMatchesBruteForceUnderChurn(t *testing.T) {
	const (
		sweeper = 100 + iota
		oscA
		oscB
		hopper
		aliasLo
		aliasHi
	)
	hops := []geom.Point{geom.Pt(5.5, 5.5), geom.Pt(-6.5, 3.5), geom.Pt(0.25, -7.75)}
	for _, m := range []geom.Metric{geom.L2, geom.L1, geom.LInf, mustLp(t, 3)} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			g := NewGridInCap(m, 1, 4)
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
			sweep, hop := 0, 0
			for step := 0; step < 1000; step++ {
				switch op := rng.Intn(20); {
				case op < 6: // insert or move an ordinary item
					put(rng.Intn(24), geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
				case op < 9: // the sweeper steps into the next cell of a 16-wide lattice
					put(sweeper, geom.Pt(float64(sweep%16)-8+0.5, float64(sweep/16%16)-8+0.5))
					sweep++
				case op < 12: // the pair swaps between two adjacent cells
					a, b := geom.Pt(1.5, -0.5), geom.Pt(2.5, -0.5)
					if step%2 == 0 {
						a, b = b, a
					}
					put(oscA, a)
					put(oscB, b)
				case op < 15: // the hopper empties its cell and reopens the next
					put(hopper, hops[hop%len(hops)])
					hop++
				case op < 19: // a random live item moves to one of eight distant cells
					ids := slices.Sorted(maps.Keys(live))
					put(ids[rng.Intn(len(ids))], geom.Pt(float64(rng.Intn(8))*50-175.5, 40.5))
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
	g := NewGridIn(nil, 1)
	var buf []int
	sweep := func() {
		for i := range 10000 {
			p := geom.Pt(float64(i%100)+0.5, float64(i/100)+0.5)
			g.Insert(1, p)
			buf = g.Within(buf[:0], p, 1)
		}
	}
	sweep()
	if n := g.used; n != 1 {
		t.Fatalf("after a 10,000-cell sweep the index holds %d cells, want 1", n)
	}
	g.Reset(nil)
	if n := g.used; n != 0 {
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
	g := NewGridIn(nil, 1)
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

// Cells chosen to collide under one fixed multiplier cost a grid no more
// than any others. The keys k_j = C⁻¹·mix⁻¹(j) of 16,384 cells, all inside
// ±2³¹, would all start their probe at slot 0 if the multiplier were the
// golden-ratio constant C, and the longest probe would run 16,384 slots.
// Under a grid's own random multiplier the longest stays short: a
// stand-alone copy of the table never probed more than 69 slots in 20,000
// trials.
func TestGridResistsKeyFlooding(t *testing.T) {
	const (
		golden = 0x9E3779B97F4A7C15
		n      = 1 << 14
	)
	g := NewGridIn(nil, 1)
	for j := range n {
		k := inverse(golden) * unmix(uint64(j))
		if mix(k*golden) != uint64(j) {
			t.Fatalf("key %#x does not hash to %d under the golden multiplier", k, j)
		}
		g.Insert(j, geom.Pt(float64(int32(k>>32))+0.5, float64(int32(k))+0.5))
	}
	if g.used != n {
		t.Fatalf("the index holds %d cells, want %d", g.used, n)
	}
	longest := 0
	mask := len(g.table) - 1
	for i, c := range g.table {
		if len(c.ids) > 0 {
			longest = max(longest, (i-g.home(c.key))&mask+1)
		}
	}
	if longest > 256 {
		t.Fatalf("the longest probe runs %d slots of %d, want at most 256", longest, len(g.table))
	}
}

// inverse returns the inverse of odd c modulo 2⁶⁴: each Newton step doubles
// the number of correct low bits, from the 3 that c itself gets right.
func inverse(c uint64) uint64 {
	x := c
	for range 5 {
		x *= 2 - c*x
	}
	return x
}

// unmix inverts mix. Each x ^= x >> 33 step is its own inverse, because
// 2·33 ≥ 64.
func unmix(x uint64) uint64 {
	x ^= x >> 33
	x *= inverse(0xc4ceb9fe1a85ec53)
	x ^= x >> 33
	x *= inverse(0xff51afd7ed558ccd)
	x ^= x >> 33
	return x
}
