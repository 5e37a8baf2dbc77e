// Package spatial provides a uniform grid hash over the plane supporting
// near-constant-time radius queries. The simulator uses it to implement the
// robots' radius-1 "look" primitive without scanning the whole swarm, and
// the disk-graph builder uses it to enumerate δ-neighbors.
package spatial

import (
	"math"
	"math/bits"

	"freezetag/internal/geom"
)

// Grid indexes items identified by int IDs at points in the plane, bucketed
// into square cells of a fixed size. Query cost is proportional to the number
// of items in the cells overlapping the query ball.
//
// Radius queries are evaluated under the grid's metric (ℓ2 unless built with
// NewGridIn). The cell bookkeeping itself is metric-independent: a metric
// ball of radius r is always contained in the axis-aligned square of
// half-width r because every supported metric dominates the Chebyshev
// distance (see geom.Metric).
//
// Cells store their members as parallel id/point slices, so query scans walk
// contiguous points (and can hand whole cells to geom.DistBatch) instead of
// chasing a map lookup per member. Only occupied cells are indexed: when a
// cell's last member leaves, the cell is deleted from the map and kept on a
// free list, and the next cell to open reuses it. The map therefore holds at
// most one cell per item however far the items travel, and an item sweeping
// across fresh territory — the simulator's move loop — allocates nothing in
// steady state.
//
// Cell keys pack the two cell indices as int32 halves of one uint64, so
// every probe takes the runtime's 8-byte map fast path. Cells whose indices
// differ by a multiple of 2³² therefore share a bucket. Every member is
// still distance-checked, so query results stay exact; only the order of
// results inside such a shared bucket could differ from a per-cell index,
// and only for items ≳ 2³¹ cells apart.
//
// Grid is not safe for concurrent use; the simulator serializes all access.
type Grid struct {
	cell   float64
	metric geom.Metric
	euclid bool // cached IsL2(metric): keeps the Dist2 fast path branch cheap
	batch  bool // geom.BatchAccelerated(metric): big cells go through DistBatch
	items  map[int]geom.Point
	cells  map[uint64]*gridCell
	// free holds emptied cells, without member storage, for newCell to
	// hand out again.
	free []*gridCell
	// spare holds member storage no cell is using, by capacity class:
	// class k holds cellSeedCap<<k members. A cell draws the next class
	// each time it fills and returns its storage when it empties, so the
	// capacity a crowded cell grew to goes to the next cell that grows,
	// wherever that cell opens.
	spare [bits.UintSize][]gridCell
	// dists is the DistBatch scratch for metric cell scans, grown to the
	// largest cell ever scanned and reused across queries.
	dists []float64
	// cellBlock bump-allocates gridCell structs in chunks, so populating a
	// grid (a robot swarm, a disk-graph vertex set) costs one allocation per
	// block rather than one per cell. Handed-out pointers stay valid when a
	// block fills: the full block is abandoned to its cells and a fresh one
	// started.
	cellBlock []gridCell
	// idBlock/ptBlock back the class-0 storage: capacity-clipped windows
	// carved from a shared array, so a cell's first members don't cost a
	// slice allocation each. The three-index clip guarantees a cell can
	// never overwrite its neighbour's window.
	idBlock []int
	ptBlock []geom.Point
}

// cellBlockSize is how many gridCell structs (and class-0 windows) each
// bump block holds; cellSeedCap is the member capacity of class 0. Most
// cells a moving robot sweeps through hold one or two members at a time, so
// class 0 absorbs the common case outright.
const (
	cellBlockSize = 256
	cellSeedCap   = 2
)

// newCell hands out an empty cell without member storage: a freed one if
// any, else a zeroed one from the bump blocks.
func (g *Grid) newCell() *gridCell {
	if n := len(g.free); n > 0 {
		c := g.free[n-1]
		g.free = g.free[:n-1]
		return c
	}
	if len(g.cellBlock) == cap(g.cellBlock) {
		g.cellBlock = make([]gridCell, 0, cellBlockSize)
	}
	g.cellBlock = g.cellBlock[:len(g.cellBlock)+1]
	return &g.cellBlock[len(g.cellBlock)-1]
}

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
		*c = g.storage(0)
		return
	}
	s := g.storage(class(cap(c.ids)) + 1)
	s.ids = append(s.ids, c.ids...)
	s.pts = append(s.pts, c.pts...)
	g.retire(*c)
	*c = s
}

// retire returns member storage s, truncated, to its class's spare list.
func (g *Grid) retire(s gridCell) {
	k := class(cap(s.ids))
	g.spare[k] = append(g.spare[k], gridCell{ids: s.ids[:0], pts: s.pts[:0]})
}

// gridCell holds one cell's members as parallel slices: ids[i] sits at
// pts[i]. The point copy is the whole optimization — scans read points
// sequentially from the cell instead of indirecting through the item map.
type gridCell struct {
	ids []int
	pts []geom.Point
}

// batchScanMin is the cell population below which metric scans stay on the
// per-point path even when the metric is batch-accelerated: DistBatch's
// dispatch and staging don't pay for themselves on near-empty cells (the
// simulator's look cells typically hold a handful of robots). Either path
// produces identical bits; this is purely a knob.
const batchScanMin = 8

// NewGrid builds an empty Euclidean grid with the given cell size. The cell
// size should be of the order of the most common query radius; it must be
// positive.
func NewGrid(cellSize float64) *Grid { return NewGridIn(nil, cellSize) }

// NewGridIn builds an empty grid whose radius queries measure under m (nil
// defaults to ℓ2).
func NewGridIn(m geom.Metric, cellSize float64) *Grid {
	return NewGridInCap(m, cellSize, 0)
}

// NewGridInCap is NewGridIn with a capacity hint: the item index is sized
// for n items up front, so bulk loads (the simulator's robot population,
// the disk-graph vertex set) skip the incremental map growth.
func NewGridInCap(m geom.Metric, cellSize float64, n int) *Grid {
	if cellSize <= 0 {
		panic("spatial: cell size must be positive")
	}
	if n < 0 {
		n = 0
	}
	metric := geom.MetricOrL2(m)
	return &Grid{
		cell:   cellSize,
		metric: metric,
		euclid: geom.IsL2(metric),
		batch:  geom.BatchAccelerated(metric),
		items:  make(map[int]geom.Point, n),
		cells:  make(map[uint64]*gridCell, n),
	}
}

// Reset empties the grid for reuse under metric m (nil defaults to ℓ2),
// retaining all allocated storage: the item index, the cell map, every cell
// (returned to the free list), every cell's member storage (returned to the
// spare lists by capacity class), and the batch scratch survive, so a
// simulation engine re-running instances of one shape settles to
// re-populating the grid without allocating, whatever order the items come
// back in.
func (g *Grid) Reset(m geom.Metric) {
	metric := geom.MetricOrL2(m)
	g.metric = metric
	g.euclid = geom.IsL2(metric)
	g.batch = geom.BatchAccelerated(metric)
	clear(g.items)
	for _, c := range g.cells {
		g.release(c)
	}
	clear(g.cells)
}

// release returns c's member storage to the spare lists and c to the free
// list.
func (g *Grid) release(c *gridCell) {
	g.retire(*c)
	*c = gridCell{}
	g.free = append(g.free, c)
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return len(g.items) }

// cellKey packs cell indices (cx, cy) into one map key, each truncated to
// its low 32 bits.
func cellKey(cx, cy int) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

func (g *Grid) key(p geom.Point) uint64 {
	return cellKey(int(math.Floor(p.X/g.cell)), int(math.Floor(p.Y/g.cell)))
}

// Insert adds or moves item id to point p.
func (g *Grid) Insert(id int, p geom.Point) {
	if old, ok := g.items[id]; ok {
		g.removeFromCell(id, old)
	}
	g.items[id] = p
	k := g.key(p)
	c := g.cells[k]
	if c == nil {
		c = g.newCell()
		g.cells[k] = c
	}
	if len(c.ids) == cap(c.ids) {
		g.grow(c)
	}
	c.ids = append(c.ids, id)
	c.pts = append(c.pts, p)
}

// Remove deletes item id; unknown ids are a no-op.
func (g *Grid) Remove(id int) {
	p, ok := g.items[id]
	if !ok {
		return
	}
	g.removeFromCell(id, p)
	delete(g.items, id)
}

func (g *Grid) removeFromCell(id int, p geom.Point) {
	k := g.key(p)
	c := g.cells[k]
	if c == nil {
		return
	}
	for i, v := range c.ids {
		if v == id {
			last := len(c.ids) - 1
			c.ids[i] = c.ids[last]
			c.pts[i] = c.pts[last]
			c.ids = c.ids[:last]
			c.pts = c.pts[:last]
			if last == 0 {
				delete(g.cells, k)
				g.release(c)
			}
			return
		}
	}
}

// At returns the indexed position of id and whether it exists.
func (g *Grid) At(id int) (geom.Point, bool) {
	p, ok := g.items[id]
	return p, ok
}

// cellDists fills g.dists with the metric distances from p to every member
// of c via the batch kernel and returns the block.
func (g *Grid) cellDists(p geom.Point, c *gridCell) []float64 {
	if cap(g.dists) < len(c.pts) {
		g.dists = make([]float64, len(c.pts)+lenSlack(len(c.pts)))
	}
	d := g.dists[:len(c.pts)]
	geom.DistBatch(g.metric, p, c.pts, d)
	return d
}

// lenSlack over-allocates scratch growth so a sequence of slightly-growing
// cells settles after a few queries.
func lenSlack(n int) int { return n/2 + 8 }

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
	rEps := r + geom.Eps
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			c := g.cells[cellKey(cx, cy)]
			if c == nil {
				continue
			}
			switch {
			case g.euclid:
				// Squared-distance fast path, bit-identical to the
				// pre-metric grid.
				for i, q := range c.pts {
					if q.Dist2(p) <= r2 {
						dst = append(dst, c.ids[i])
					}
				}
			case g.batch && len(c.pts) >= batchScanMin:
				for i, d := range g.cellDists(p, c) {
					if d <= rEps {
						dst = append(dst, c.ids[i])
					}
				}
			default:
				for i, q := range c.pts {
					if geom.WithinIn(g.metric, q, p, r) {
						dst = append(dst, c.ids[i])
					}
				}
			}
		}
	}
	return dst
}
