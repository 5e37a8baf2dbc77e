// Package spatial provides a uniform grid hash over the plane supporting
// near-constant-time radius queries. The simulator uses it to implement the
// robots' radius-1 "look" primitive without scanning the whole swarm, and
// the disk-graph builder uses it to enumerate δ-neighbors.
package spatial

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"freezetag/internal/geom"
)

// Grid indexes items identified by int IDs at points in the plane, bucketed
// into square cells of a fixed size. Query cost is proportional to the number
// of items in the cells overlapping the query ball.
//
// IDs are small non-negative ints: the item index is a slice indexed by ID,
// grown on demand to the largest ID inserted. Every caller numbers its items
// densely (the simulator's robots 0..n, a vertex set 0..n-1).
//
// Radius queries are evaluated under the grid's metric (ℓ2 unless built with
// NewGridIn). The cell bookkeeping itself is metric-independent: a metric
// ball of radius r is always contained in the axis-aligned square of
// half-width r because every supported metric dominates the Chebyshev
// distance (see geom.Metric).
//
// Cells store their members as parallel id/point slices, so query scans walk
// contiguous points. Only occupied cells are indexed, in an open-addressed
// table of packed cell keys: a power-of-two array probed linearly and kept
// at most half full. A cell whose last member leaves is deleted by backward
// shift, which leaves no tombstone, so the table holds at most one cell per
// item however far the items travel, and an item sweeping across fresh
// territory — the simulator's move loop — allocates nothing in steady state.
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
// in their stored order; only Reset's walk sees the slot order, and it only
// recycles storage.
//
// Cell keys pack the two cell indices as int32 halves of one uint64, so
// cells whose indices differ by a multiple of 2³² share a key and one
// member list. Every member is still distance-checked, so query results
// stay exact; only the order of results inside such a shared cell could
// differ from a per-cell index, and only for items ≳ 2³¹ cells apart.
//
// Grid is not safe for concurrent use; the simulator serializes all access.
type Grid struct {
	cell   float64
	metric geom.Metric
	euclid bool // cached IsL2(metric): keeps the Dist2 fast path branch cheap
	// items[id] is the key of the cell item id sits in, if it is indexed.
	items []item
	// table is the cell table: len(table) is a power of two, used of its
	// slots hold a cell, and a slot whose cell has no members is empty.
	// A key's probe sequence starts at slot mix(key·mul) >> shift.
	table []gridCell
	used  int
	mul   uint64
	shift uint
	// spare holds member storage no cell is using, by capacity class:
	// class k holds cellSeedCap<<k members. A cell draws the next class
	// each time it fills and returns its storage when it empties, so the
	// capacity a crowded cell grew to goes to the next cell that grows,
	// wherever that cell opens.
	spare [bits.UintSize][]gridCell
	// idBlock/ptBlock back the class-0 storage: capacity-clipped windows
	// carved from a shared array, so a cell's first members don't cost a
	// slice allocation each. The three-index clip guarantees a cell can
	// never overwrite its neighbour's window.
	idBlock []int
	ptBlock []geom.Point
}

// item is one entry of the item index.
type item struct {
	key     uint64
	indexed bool
}

// cellBlockSize is how many class-0 windows each block holds; cellSeedCap is
// the member capacity of class 0. Most cells a moving robot sweeps through
// hold one or two members at a time, so class 0 absorbs the common case
// outright. minTable is the smallest cell table.
const (
	cellBlockSize = 256
	cellSeedCap   = 2
	minTable      = 8
)

// storage returns empty member storage of capacity class k: a spare one if
// any, else a window of the class-0 blocks or a fresh allocation.
func (g *Grid) storage(k int) gridCell {
	if n := len(g.spare[k]); n > 0 {
		s := g.spare[k][n-1]
		g.spare[k] = g.spare[k][:n-1]
		return s
	}
	if k > 0 {
		n := cellSeedCap << k
		return gridCell{ids: make([]int, 0, n), pts: make([]geom.Point, 0, n)}
	}
	if cap(g.idBlock)-len(g.idBlock) < cellSeedCap {
		g.idBlock = make([]int, 0, cellBlockSize*cellSeedCap)
		g.ptBlock = make([]geom.Point, 0, cellBlockSize*cellSeedCap)
	}
	off := len(g.idBlock)
	g.idBlock = g.idBlock[:off+cellSeedCap]
	g.ptBlock = g.ptBlock[:off+cellSeedCap]
	return gridCell{ids: g.idBlock[off : off : off+cellSeedCap], pts: g.ptBlock[off : off : off+cellSeedCap]}
}

// class returns the capacity class of storage holding n = cellSeedCap<<k
// members.
func class(n int) int { return bits.Len(uint(n/cellSeedCap)) - 1 }

// grow moves c's members into storage of the next capacity class and
// returns c's outgrown storage, if any, to the spare lists.
func (g *Grid) grow(c *gridCell) {
	if cap(c.ids) == 0 {
		s := g.storage(0)
		c.ids, c.pts = s.ids, s.pts
		return
	}
	s := g.storage(class(cap(c.ids)) + 1)
	s.ids = append(s.ids, c.ids...)
	s.pts = append(s.pts, c.pts...)
	g.retire(*c)
	c.ids, c.pts = s.ids, s.pts
}

// retire returns member storage s, truncated, to its class's spare list.
func (g *Grid) retire(s gridCell) {
	k := class(cap(s.ids))
	g.spare[k] = append(g.spare[k], gridCell{ids: s.ids[:0], pts: s.pts[:0]})
}

// gridCell is one slot of the cell table: an occupied cell's key and its
// members as parallel slices, ids[i] sitting at pts[i]. The point copy is
// what lets scans read points sequentially from the cell. The spare lists
// hold gridCells too, for their storage alone.
type gridCell struct {
	key uint64
	ids []int
	pts []geom.Point
}

// NewGridIn builds an empty grid with the given cell size, whose radius
// queries measure under m. The cell size should be of the order of the most
// common query radius; it must be positive.
func NewGridIn(m geom.Metric, cellSize float64) *Grid {
	return NewGridInCap(m, cellSize, 0)
}

// NewGridInCap is NewGridIn with a capacity hint: the item index and the
// cell table are sized for n items up front, so bulk loads (the simulator's
// robot population, the disk-graph vertex set) skip their incremental
// growth.
func NewGridInCap(m geom.Metric, cellSize float64, n int) *Grid {
	if cellSize <= 0 {
		panic("spatial: cell size must be positive")
	}
	n = max(n, 0)
	size := minTable
	for size < 2*n {
		size *= 2
	}
	metric := geom.MetricOrL2(m)
	g := &Grid{
		cell:   cellSize,
		metric: metric,
		euclid: geom.IsL2(metric),
		items:  make([]item, 0, n),
		mul:    rand.Uint64() | 1,
	}
	g.rehash(size)
	return g
}

// Reset empties the grid for reuse under metric m (nil defaults to ℓ2),
// retaining all allocated storage: the item index, the cell table and every
// cell's member storage (returned to the spare lists by capacity class)
// survive, so a simulation engine re-running instances of one shape settles
// to re-populating the grid without allocating, whatever order the items
// come back in.
func (g *Grid) Reset(m geom.Metric) {
	metric := geom.MetricOrL2(m)
	g.metric = metric
	g.euclid = geom.IsL2(metric)
	clear(g.items)
	for i := range g.table {
		if c := &g.table[i]; len(c.ids) > 0 {
			g.retire(*c)
			*c = gridCell{}
		}
	}
	g.used = 0
}

// cellKey packs cell indices (cx, cy) into one key, each truncated to its
// low 32 bits.
func cellKey(cx, cy int) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

func (g *Grid) key(p geom.Point) uint64 {
	return cellKey(int(math.Floor(p.X/g.cell)), int(math.Floor(p.Y/g.cell)))
}

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
		if c := &g.table[i]; len(c.ids) == 0 || c.key == k {
			return i
		}
	}
}

// open returns key k's cell, opening an empty one (doubling the table first
// if that would fill it past half) when k has none.
func (g *Grid) open(k uint64) *gridCell {
	i := g.slot(k)
	if len(g.table[i].ids) > 0 {
		return &g.table[i]
	}
	if 2*(g.used+1) > len(g.table) {
		g.rehash(2 * len(g.table))
		i = g.slot(k)
	}
	g.used++
	c := &g.table[i]
	c.key = k
	return c
}

// rehash moves every cell into a fresh table of size slots, a power of two.
func (g *Grid) rehash(size int) {
	old := g.table
	g.table = make([]gridCell, size)
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, c := range old {
		if len(c.ids) > 0 {
			g.table[g.slot(c.key)] = c
		}
	}
}

// vacate empties slot i, whose cell just lost its last member, and returns
// the cell's storage to the spare lists. Backward shift: each later cell of
// the probe run whose home does not lie cyclically in (i, j] moves into the
// hole, so every probe sequence stays unbroken without a tombstone.
func (g *Grid) vacate(i int) {
	g.retire(g.table[i])
	mask := len(g.table) - 1
	for j := (i + 1) & mask; len(g.table[j].ids) > 0; j = (j + 1) & mask {
		if (j-g.home(g.table[j].key))&mask >= (j-i)&mask {
			g.table[i] = g.table[j]
			i = j
		}
	}
	g.table[i] = gridCell{}
	g.used--
}

// Insert adds or moves item id to point p.
func (g *Grid) Insert(id int, p geom.Point) {
	if id >= len(g.items) {
		g.items = append(g.items, make([]item, id+1-len(g.items))...)
	}
	it := &g.items[id]
	if it.indexed {
		g.removeFromCell(id, it.key)
	}
	k := g.key(p)
	*it = item{key: k, indexed: true}
	c := g.open(k)
	if len(c.ids) == cap(c.ids) {
		g.grow(c)
	}
	c.ids = append(c.ids, id)
	c.pts = append(c.pts, p)
}

// removeFromCell drops item id from the cell under key k.
func (g *Grid) removeFromCell(id int, k uint64) {
	i := g.slot(k)
	c := &g.table[i]
	for j, v := range c.ids {
		if v == id {
			last := len(c.ids) - 1
			c.ids[j] = c.ids[last]
			c.pts[j] = c.pts[last]
			c.ids = c.ids[:last]
			c.pts = c.pts[:last]
			if last == 0 {
				g.vacate(i)
			}
			return
		}
	}
}

// Within appends to dst the ids of all items within metric distance r of p
// (closed ball, geom.Eps slack) and returns the extended slice. Results are
// in unspecified order. The scanned cell range is the bounding square of the
// ball, which covers the metric ball of every supported metric.
func (g *Grid) Within(dst []int, p geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	minX := int(math.Floor((p.X - r) / g.cell))
	maxX := int(math.Floor((p.X + r) / g.cell))
	minY := int(math.Floor((p.Y - r) / g.cell))
	maxY := int(math.Floor((p.Y + r) / g.cell))
	r2 := (r + geom.Eps) * (r + geom.Eps)
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			c := &g.table[g.slot(cellKey(cx, cy))]
			if g.euclid {
				// Squared-distance fast path, bit-identical to the
				// pre-metric grid.
				for i, q := range c.pts {
					if q.Dist2(p) <= r2 {
						dst = append(dst, c.ids[i])
					}
				}
				continue
			}
			for i, q := range c.pts {
				if geom.WithinIn(g.metric, q, p, r) {
					dst = append(dst, c.ids[i])
				}
			}
		}
	}
	return dst
}
