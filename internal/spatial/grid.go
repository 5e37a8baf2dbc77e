// Package spatial provides a uniform grid hash over the plane supporting
// near-constant-time radius queries. A grid is insert-once: it is filled,
// then queried, and builds its index on the first query. Within scans only
// the cells inside both the query's bounding square and the bounding box of
// the items' cells, so a query away from every item probes no cell at all. The
// simulator uses it to implement the robots' radius-1 "look" primitive over
// the sleeping robots without scanning the whole swarm, and the disk-graph
// builder uses it to enumerate δ-neighbors.
package spatial

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"freezetag/internal/geom"
)

// Grid indexes items identified by int IDs at points in the plane, bucketed
// into square cells of a fixed size. Query cost is proportional to the number
// of cells, and of items in them, that lie inside both the query ball's
// bounding square and the bounding box of the items' cells: cells outside
// that box hold no item, so Within never probes them.
//
// A Grid is insert-once: an item stays where it was inserted until Reset
// empties the grid. Every caller fills the grid and then queries it (the
// simulator's sleeping robots, which never move; a vertex set). Insert only
// appends the item to flat lists, and the first Within after an Insert
// builds the cell index over all items, so interleaving Insert and Within
// rebuilds it on every query. An id inserted twice is indexed twice, once
// at each point.
//
// Radius queries are evaluated under the grid's metric (ℓ2 unless built with
// NewGridIn). The cell bookkeeping itself is metric-independent: a metric
// ball of radius r is always contained in the axis-aligned square of
// half-width r because every supported metric dominates the Chebyshev
// distance (see geom.Metric).
//
// The index is in CSR form: each occupied cell owns one contiguous window
// of parallel member id/point lists, so query scans walk contiguous points.
// Only occupied cells are indexed, in an open-addressed table of packed cell
// keys: a power-of-two array probed linearly, at least twice the item count
// and so at most half full. The build counts the members of each cell in
// the table, turns the counts into windows, and copies the items in, in
// insertion order. Re-populating a grid with as many items as before
// allocates nothing.
//
// A key is hashed by multiplying it by an odd multiplier each grid draws at
// random and mixing the product with the MurmurHash3 64-bit finalizer, whose
// top bits pick the home slot. The random multiplier keeps any fixed set of
// cells from colliding in every grid. The finalizer keeps regular key sets
// from clustering: a row of cells is an arithmetic progression of keys,
// which a bare multiply-shift hash maps to an arithmetic progression of
// slots, and for about one multiplier in a hundred those pile up into probe
// runs tens to thousands of slots long. Results never depend on the
// multiplier: Within visits cells in (cx, cy) order and each cell's members
// in insertion order.
//
// Cell keys pack the two cell indices as int32 halves of one uint64, so
// cells whose indices differ by a multiple of 2³² share a key and one
// member window. Every member is still distance-checked, so query results
// stay exact; only the order of results inside such a shared cell could
// differ from a per-cell index, and only for items ≳ 2³¹ cells apart. The
// items' bounding box is kept in full-width indices, so clipping a query to
// it never drops a cell whose key another cell shares.
//
// Grid is not safe for concurrent use, queries included, since a query may
// build the index; the simulator serializes all access.
type Grid struct {
	cell   float64
	metric geom.Metric
	euclid bool // cached IsL2(metric): keeps the Dist2 fast path branch cheap
	// The items in insertion order: ids[i] sits at pts[i], in the cell
	// under keys[i].
	ids  []int
	pts  []geom.Point
	keys []uint64
	// built reports whether the index below covers every item.
	built bool
	// table is the cell table: len(table) is a power of two, and a slot
	// whose cell has no members is empty. A key's probe sequence starts at
	// slot mix(key·mul) >> shift.
	table []gridCell
	mul   uint64
	shift uint
	// memIDs and memPts are the items in cell order: a cell's members are
	// memIDs[c.start : c.start+c.n], memPts likewise.
	memIDs []int
	memPts []geom.Point
	// The bounding box of the items' cells, in the full-width indices of
	// index, not the packed key halves: every item's cell (cx, cy) has
	// minX ≤ cx ≤ maxX and minY ≤ cy ≤ maxY. An empty grid's box is empty
	// (min > max).
	minX, maxX, minY, maxY int
}

// gridCell is one slot of the cell table: an occupied cell's key and its
// window of the member lists.
type gridCell struct {
	key      uint64
	start, n int
}

// minTable is the smallest cell table.
const minTable = 8

// NewGridIn builds an empty grid with the given cell size, whose radius
// queries measure under m. The cell size should be of the order of the most
// common query radius; it must be positive.
func NewGridIn(m geom.Metric, cellSize float64) *Grid {
	return NewGridInCap(m, cellSize, 0)
}

// NewGridInCap is NewGridIn with a capacity hint: the item lists are sized
// for n items up front, so bulk loads (the simulator's sleeping robots, the
// disk-graph vertex set) skip their incremental growth.
func NewGridInCap(m geom.Metric, cellSize float64, n int) *Grid {
	if cellSize <= 0 {
		panic("spatial: cell size must be positive")
	}
	n = max(n, 0)
	g := &Grid{
		cell: cellSize,
		ids:  make([]int, 0, n),
		pts:  make([]geom.Point, 0, n),
		keys: make([]uint64, 0, n),
		mul:  rand.Uint64() | 1,
	}
	g.Reset(m)
	return g
}

// Reset empties the grid for reuse under metric m (nil defaults to ℓ2),
// retaining all allocated storage, so a simulation engine re-running
// instances of one shape settles to re-populating the grid without
// allocating.
func (g *Grid) Reset(m geom.Metric) {
	metric := geom.MetricOrL2(m)
	g.metric = metric
	g.euclid = geom.IsL2(metric)
	g.ids, g.pts, g.keys = g.ids[:0], g.pts[:0], g.keys[:0]
	g.built = false
	g.minX, g.maxX, g.minY, g.maxY = math.MaxInt, math.MinInt, math.MaxInt, math.MinInt
}

// index returns the full-width index of the cell column (or row) holding
// coordinate x.
func (g *Grid) index(x float64) int { return int(math.Floor(x / g.cell)) }

// cellKey packs cell indices (cx, cy) into one key, each truncated to its
// low 32 bits.
func cellKey(cx, cy int) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

// home returns the slot where key k's probe sequence starts.
func (g *Grid) home(k uint64) int { return int(mix(k*g.mul) >> g.shift) }

// mix is the MurmurHash3 64-bit finalizer, a bijection whose every output
// bit depends on every input bit.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// slot returns the index of the slot holding key k's cell, or of the empty
// slot that ends k's probe sequence when k has no cell. The table is never
// full, so the probe always ends.
func (g *Grid) slot(k uint64) int {
	mask := len(g.table) - 1
	for i := g.home(k); ; i = (i + 1) & mask {
		if c := &g.table[i]; c.n == 0 || c.key == k {
			return i
		}
	}
}

// Insert adds item id at point p.
func (g *Grid) Insert(id int, p geom.Point) {
	cx, cy := g.index(p.X), g.index(p.Y)
	g.minX, g.maxX = min(g.minX, cx), max(g.maxX, cx)
	g.minY, g.maxY = min(g.minY, cy), max(g.maxY, cy)
	g.ids = append(g.ids, id)
	g.pts = append(g.pts, p)
	g.keys = append(g.keys, cellKey(cx, cy))
	g.built = false
}

// build indexes every item: it counts each cell's members in a cleared
// table, turns the counts into windows, and copies the items in, walking
// them backwards and filling each window from its end, so every window
// keeps insertion order.
func (g *Grid) build() {
	size := minTable
	for size < 2*len(g.ids) {
		size *= 2
	}
	g.table = slices.Grow(g.table[:0], size)[:size]
	clear(g.table)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, k := range g.keys {
		c := &g.table[g.slot(k)]
		c.key = k
		c.n++
	}
	// Each window's start is set one past its end; the copy below walks
	// it back down.
	end := 0
	for i := range g.table {
		end += g.table[i].n
		g.table[i].start = end
	}
	n := len(g.ids)
	g.memIDs = slices.Grow(g.memIDs[:0], n)[:n]
	g.memPts = slices.Grow(g.memPts[:0], n)[:n]
	for i := len(g.keys) - 1; i >= 0; i-- {
		c := &g.table[g.slot(g.keys[i])]
		c.start--
		g.memIDs[c.start] = g.ids[i]
		g.memPts[c.start] = g.pts[i]
	}
	g.built = true
}

// Within appends to dst the ids of all items within metric distance r of p
// (closed ball, geom.Eps slack) and returns the extended slice. Results are
// in unspecified order. The scanned cell range is the bounding square of the
// ball, which covers the metric ball of every supported metric, clipped to
// the bounding box of the items' cells, outside which no cell holds an
// item. The first query after an Insert builds the index.
func (g *Grid) Within(dst []int, p geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	if !g.built {
		g.build()
	}
	minX, maxX := max(g.index(p.X-r), g.minX), min(g.index(p.X+r), g.maxX)
	minY, maxY := max(g.index(p.Y-r), g.minY), min(g.index(p.Y+r), g.maxY)
	r2 := (r + geom.Eps) * (r + geom.Eps)
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			c := g.table[g.slot(cellKey(cx, cy))]
			ids, pts := g.memIDs[c.start:c.start+c.n], g.memPts[c.start:c.start+c.n]
			if g.euclid {
				// Squared-distance fast path, bit-identical to the
				// pre-metric grid.
				for i, q := range pts {
					if q.Dist2(p) <= r2 {
						dst = append(dst, ids[i])
					}
				}
				continue
			}
			for i, q := range pts {
				if geom.WithinIn(g.metric, q, p, r) {
					dst = append(dst, ids[i])
				}
			}
		}
	}
	return dst
}
