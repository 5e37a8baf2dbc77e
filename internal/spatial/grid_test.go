package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"freezetag/internal/geom"
)

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

// Property: Within agrees with a brute-force scan on random configurations,
// for queries inside the items' bounding box and for those that the clip to
// it cuts short: far outside it (negative coordinates included), straddling
// its edge, and wider than the whole box. The first trial's grid is empty.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := NewGridIn(nil, 0.5+rng.Float64()*3)
		pts := make(map[int]geom.Point)
		n := 1 + rng.Intn(60)
		if trial == 0 {
			n = 0
		}
		// The points' box, inverted (but finite) while the grid is empty.
		lo, hi := geom.Pt(20, 20), geom.Pt(-20, -20)
		for i := 0; i < n; i++ {
			p := geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
			pts[i] = p
			g.Insert(i, p)
			lo = geom.Pt(min(lo.X, p.X), min(lo.Y, p.Y))
			hi = geom.Pt(max(hi.X, p.X), max(hi.Y, p.Y))
		}
		type query struct {
			q geom.Point
			r float64
		}
		queries := []query{
			{geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20), rng.Float64() * 10},
			{geom.Pt(-1e4-rng.Float64()*1e4, -1e4-rng.Float64()*1e4), rng.Float64() * 10},
			{geom.Pt(-3e3, 5e3), 1},
			{geom.Pt(1e4, -rng.Float64()*1e4), 1},
			// Centred on an edge or a corner of the box, so the query's
			// square sticks out of it.
			{geom.Pt(lo.X, lo.Y+rng.Float64()*(hi.Y-lo.Y)), rng.Float64() * 3},
			{geom.Pt(hi.X, lo.Y+rng.Float64()*(hi.Y-lo.Y)), rng.Float64() * 3},
			{geom.Pt(lo.X+rng.Float64()*(hi.X-lo.X), lo.Y), rng.Float64() * 3},
			{geom.Pt(lo.X+rng.Float64()*(hi.X-lo.X), hi.Y), rng.Float64() * 3},
			{lo, 1}, {hi, 1},
			// Just outside the box, within reach of its edge items.
			{geom.Pt(hi.X+0.5, hi.Y+0.5), 1},
			{geom.Pt(lo.X-0.5, lo.Y), 0.75},
			// Wider than the whole box, from inside it and from outside.
			{geom.Pt(0, 0), 100},
			{geom.Pt(-70, 35), 100},
		}
		for qi, qr := range queries {
			got := g.Within(nil, qr.q, qr.r)
			sort.Ints(got)
			var want []int
			for id, p := range pts {
				if p.Dist(qr.q) <= qr.r+geom.Eps {
					want = append(want, id)
				}
			}
			sort.Ints(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, query %d: Within(%v, %g) = %v, brute = %v", trial, qi, qr.q, qr.r, got, want)
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

// churnItem is one inserted item of the brute-force mirror of a grid.
type churnItem struct {
	id int
	p  geom.Point
}

// check compares Within against a brute-force scan of the inserted items,
// repeats included, querying at every item and at a few random points. It
// then checks the built index: the table holds exactly the occupied cells,
// each reachable from its key's home slot, and each cell's window lists its
// members in insertion order.
func check(t *testing.T, rng *rand.Rand, g *Grid, m geom.Metric, live []churnItem, step int) {
	t.Helper()
	queries := make([]geom.Point, 0, len(live)+3)
	for _, it := range live {
		queries = append(queries, it.p)
	}
	for range 3 {
		queries = append(queries, geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12))
	}
	// Beside the 2³²-aliased item, on its side of the key's wrap: its cell
	// lies inside the items' box only in full-width cell indices.
	queries = append(queries, geom.Pt(-2.25+(1<<32), 2.25), geom.Pt(-4.75+(1<<32), 1.5))
	var got, want []int
	for _, q := range queries {
		r := rng.Float64() * 2.5
		got = g.Within(got[:0], q, r)
		sort.Ints(got)
		want = want[:0]
		for _, it := range live {
			if m.Dist(it.p, q) <= r+geom.Eps {
				want = append(want, it.id)
			}
		}
		sort.Ints(want)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Within(%v, %g) = %v, brute force %v", step, q, r, got, want)
		}
	}
	cells := map[uint64][]int{}
	for _, it := range live {
		k := cellKey(g.index(it.p.X), g.index(it.p.Y))
		cells[k] = append(cells[k], it.id)
	}
	if 2*len(live) > len(g.table) {
		t.Fatalf("step %d: a table of %d slots holds %d items, more than half full", step, len(g.table), len(live))
	}
	occupied := 0
	for i, c := range g.table {
		if c.n == 0 {
			continue
		}
		occupied++
		if g.slot(c.key) != i {
			t.Fatalf("step %d: slot %d holds cell %#x, whose probe finds slot %d", step, i, c.key, g.slot(c.key))
		}
		if win := g.memIDs[c.start : c.start+c.n]; !slices.Equal(win, cells[c.key]) {
			t.Fatalf("step %d: cell %#x lists %v, inserted %v", step, c.key, win, cells[c.key])
		}
	}
	if occupied != len(cells) {
		t.Fatalf("step %d: %d slots occupied, want %d cells", step, occupied, len(cells))
	}
}

// Property: under random sequences of inserts and resets, Within agrees
// with a brute-force scan after every step, under every metric family, and
// the built table holds exactly the occupied cells, each listing its
// members in insertion order. The sequences mix in the cases an index must
// keep straight: ids inserted twice, at a second cell or at the same point
// (where Within reports them twice); a sweeper opening fresh cells under ids
// far beyond the grid's capacity hint, so the lists and the table grow on
// demand; a pair of items whose cell indices differ by exactly 2³², which
// share a key; and resets mid-sequence. Every step queries after its
// insert, so every query rebuilds the index.
func TestWithinMatchesBruteForceUnderChurn(t *testing.T) {
	const sweeper = 100
	for _, m := range []geom.Metric{geom.L2, geom.L1, geom.LInf, mustLp(t, 3)} {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			g := NewGridInCap(m, 1, 4)
			var live []churnItem
			put := func(id int, p geom.Point) {
				g.Insert(id, p)
				live = append(live, churnItem{id, p})
			}
			putAliased := func() {
				put(sweeper-2, geom.Pt(-3.5, 2.25))
				put(sweeper-1, geom.Pt(-3.5+(1<<32), 2.25))
			}
			putAliased()
			sweep := 0
			for step := 0; step < 1000; step++ {
				switch op := rng.Intn(20); {
				case op < 8: // an ordinary item, its id often inserted before
					put(rng.Intn(24), geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10))
				case op < 12: // the sweeper opens the next cell of a 16-wide lattice
					put(sweeper+sweep, geom.Pt(float64(sweep%16)-8+0.5, float64(sweep/16%16)-8+0.5))
					sweep++
				case op < 15: // an inserted item again, at the same point
					it := live[rng.Intn(len(live))]
					put(it.id, it.p)
				case op < 19: // an inserted id again, at one of eight distant cells
					put(live[rng.Intn(len(live))].id, geom.Pt(float64(rng.Intn(8))*50-175.5, 40.5))
				default:
					g.Reset(m)
					live = live[:0]
					putAliased()
				}
				check(t, rng, g, m, live, step)
			}
		})
	}
}

// A pooled grid re-populated with one crowded point set — robot teams
// gathered in a few cells among scattered single robots, as AGrid leaves
// them — and queried once per round settles into allocation-free rounds,
// index build included, whatever order the points come back in.
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
	var buf []int
	round := func() {
		g.Reset(nil)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			g.Insert(i, pts[i])
		}
		buf = g.Within(buf[:0], geom.Pt(0.5, -2.5), 0.1)
	}
	for range 10 {
		round()
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a warmed re-population allocates %.1f times, want 0", allocs)
	}
	if n := len(buf); n != 40 {
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
	g.Within(nil, geom.Origin, 0) // builds the index
	occupied, longest := 0, 0
	mask := len(g.table) - 1
	for i, c := range g.table {
		if c.n > 0 {
			occupied++
			longest = max(longest, (i-g.home(c.key))&mask+1)
		}
	}
	if occupied != n {
		t.Fatalf("the index holds %d cells, want %d", occupied, n)
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
