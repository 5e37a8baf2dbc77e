package diskgraph

import (
	"math"

	"freezetag/internal/geom"
)

// This file implements the grid-accelerated bottleneck-MST pass behind
// ConnectivityThresholdIn. The machinery is deliberately self-contained —
// a flat CSR cell index over the vertex slice rather than spatial.Grid —
// because the pass scans millions of (cell, vertex) pairs and every map
// lookup or closure call on that path is measurable.

// ringSafety shrinks the ring-pruning radius by a hair: cell coordinates
// come from floating-point division, so a vertex pair k cells apart is
// guaranteed farther than (k−1)·cell only up to a few ulps. The factor
// keeps ring pruning strictly conservative — nothing that could still
// matter is ever pruned — which is what makes the grid pass exactly equal
// to the dense one instead of almost.
const ringSafety = 1 - 1e-9

// cellIndex buckets vertex indices into a bounded integer lattice of square
// cells in CSR layout: cell (x, y) owns ids[start[x*ny+y]:start[x*ny+y+1]].
// Cells hold vertex indices only; a scan reads each member's point from the
// shared vertex slice.
type cellIndex struct {
	cell   float64
	nx, ny int
	start  []int32
	ids    []int32
	cx, cy []int32 // per-vertex cell coordinates
}

// newCellIndex buckets pts into cells of the given size. The caller
// guarantees finite coordinates and a positive cell.
func newCellIndex(pts []geom.Point, minX, minY, cell float64) *cellIndex {
	n := len(pts)
	ci := &cellIndex{cell: cell, cx: make([]int32, n), cy: make([]int32, n)}
	for i, p := range pts {
		// Division rounding can nudge an on-boundary coordinate a hair
		// negative; clamp to keep the lattice non-negative.
		cx := max(int32((p.X-minX)/cell), 0)
		cy := max(int32((p.Y-minY)/cell), 0)
		ci.cx[i], ci.cy[i] = cx, cy
		ci.nx = max(ci.nx, int(cx)+1)
		ci.ny = max(ci.ny, int(cy)+1)
	}
	ci.start = make([]int32, ci.nx*ci.ny+1)
	for i := range pts {
		ci.start[int(ci.cx[i])*ci.ny+int(ci.cy[i])+1]++
	}
	for c := 1; c < len(ci.start); c++ {
		ci.start[c] += ci.start[c-1]
	}
	ci.ids = make([]int32, n)
	fill := make([]int32, ci.nx*ci.ny)
	for i := range pts {
		c := int(ci.cx[i])*ci.ny + int(ci.cy[i])
		ci.ids[ci.start[c]+fill[c]] = int32(i)
		fill[c]++
	}
	return ci
}

// ringSearch is the per-vertex state of a phase-B collective search.
type ringSearch struct {
	bestD  []float64 // best foreign distance found so far
	bestTo []int32   // its vertex, -1 if none
}

// scanCell scans one cell for vertices foreign to root rv, updating v's
// best candidate with one Dist call per foreign member, in cell order.
// root is the per-vertex root snapshot of the current round — the
// union-find is only mutated between rounds, so a flat array load replaces
// a find per scanned vertex on the hottest loop in the pass.
func (ci *cellIndex) scanCell(m geom.Metric, pts []geom.Point, root []int32, rv int32, v, x, y int, rs *ringSearch) {
	base := x*ci.ny + y
	p := pts[v]
	bestD, bestTo := rs.bestD[v], rs.bestTo[v]
	for _, id := range ci.ids[ci.start[base]:ci.start[base+1]] {
		if root[id] == rv {
			continue // same component (or v itself)
		}
		if d := m.Dist(pts[id], p); d < bestD {
			bestD, bestTo = d, id
		}
	}
	rs.bestD[v], rs.bestTo[v] = bestD, bestTo
}

// scanRing scans the perimeter cells of the given ring around vertex v;
// done reports that the ring already covers the whole lattice, i.e. v has
// seen every vertex.
func (ci *cellIndex) scanRing(m geom.Metric, pts []geom.Point, root []int32, rv int32, v, ring int, rs *ringSearch) (done bool) {
	cx, cy := int(ci.cx[v]), int(ci.cy[v])
	x0, x1 := cx-ring, cx+ring
	y0, y1 := cy-ring, cy+ring
	for x := max(x0, 0); x <= min(x1, ci.nx-1); x++ {
		if x == x0 || x == x1 {
			for y := max(y0, 0); y <= min(y1, ci.ny-1); y++ {
				ci.scanCell(m, pts, root, rv, v, x, y, rs)
			}
			continue
		}
		if y0 >= 0 { // interior column: perimeter rows only
			ci.scanCell(m, pts, root, rv, v, x, y0, rs)
		}
		if y1 != y0 && y1 <= ci.ny-1 {
			ci.scanCell(m, pts, root, rv, v, x, y1, rs)
		}
	}
	return x0 <= 0 && y0 <= 0 && x1 >= ci.nx-1 && y1 >= ci.ny-1
}

// bottleneckGridIn computes the bottleneck-MST weight by Borůvka over the
// cell index: each round, every component finds its cheapest outgoing edge
// and the edges merge components union-find style; the largest merging
// weight is ℓ*.
//
// Exactness does not depend on tie-breaking: any tree whose every edge was,
// when added, a minimum-weight edge leaving some current component has
// bottleneck exactly ℓ* — (≤) each such edge is at most ℓ* because the
// ℓ*-ball graph is connected and therefore crosses every cut with an edge
// of weight ≤ ℓ*; (≥) any spanning tree's maximum edge is at least ℓ* by
// minimality of the threshold. Both passes take max/min over the same
// float64 Dist values (every supported metric is bitwise symmetric in its
// arguments), so the returned float is identical to the dense pass's.
//
// Each round runs in two phases. Phase A: vertices whose cached
// nearest-foreign candidate is still foreign contribute it for free — a
// component only grows, so a candidate that survived is still exactly the
// nearest foreign vertex. Phase B: the vertices whose candidate was
// absorbed re-search, grouped by component and ring-synchronized: the
// whole group expands one cell ring at a time sharing the component's best
// outgoing weight as a prune bound, so the moment any member touches a
// foreign vertex, members deep inside the component stop scanning. A
// pruned member can only be hiding edges at least as heavy as one the
// component already holds, so the per-component minimum — and therefore
// the bottleneck — is unaffected. Rounds at least halve the component
// count, giving near-linear total work for well-conditioned sets.
func bottleneckGridIn(m geom.Metric, pts []geom.Point, minX, minY, cell float64) float64 {
	n := len(pts)
	uf := newUnionFind(n)
	comps := n

	st := &boruvkaState{
		m:          m,
		pts:        pts,
		ci:         newCellIndex(pts, minX, minY, cell),
		candTo:     make([]int32, n),
		candD:      make([]float64, n),
		noneWithin: make([]float64, n),
		minD:       make([]float64, n),
		minFrom:    make([]int32, n),
		minTo:      make([]int32, n),
		head:       make([]int32, n),
		next:       make([]int32, n),
		root:       make([]int32, n),
		rs:         ringSearch{bestD: make([]float64, n), bestTo: make([]int32, n)},
		active:     make([]int32, 0, 64),
	}
	pendingRoots := make([]int32, 0, 16)
	for i := range st.candTo {
		st.candTo[i] = -1
	}

	var bottleneck float64
	for comps > 1 {
		for i := range st.minD {
			st.minD[i] = math.Inf(1)
			st.head[i] = -1
		}
		for v := 0; v < n; v++ {
			st.root[v] = int32(uf.find(v))
		}
		// Phase A.
		pendingRoots = pendingRoots[:0]
		for v := 0; v < n; v++ {
			rv := st.root[v]
			if to := st.candTo[v]; to >= 0 {
				if st.root[to] != rv {
					if st.candD[v] < st.minD[rv] {
						st.minD[rv], st.minFrom[rv], st.minTo[rv] = st.candD[v], int32(v), to
					}
					continue
				}
				// The cached nearest foreign vertex was absorbed: its
				// distance becomes v's foreign-distance floor.
				st.candTo[v] = -1
				st.noneWithin[v] = math.Max(st.noneWithin[v], st.candD[v])
			}
			if st.head[rv] < 0 {
				pendingRoots = append(pendingRoots, rv)
			}
			st.next[v] = st.head[rv]
			st.head[rv] = int32(v)
		}
		// Phase B.
		for _, rv := range pendingRoots {
			st.searchComponent(rv)
		}
		// Merge every component along its recorded cheapest outgoing edge.
		merged := false
		for r := 0; r < n; r++ {
			if math.IsInf(st.minD[r], 1) {
				continue // not a round-start root, or found no edge
			}
			if uf.union(int(st.minFrom[r]), int(st.minTo[r])) {
				comps--
				if st.minD[r] > bottleneck {
					bottleneck = st.minD[r]
				}
				merged = true
			}
		}
		if !merged {
			break // safety valve; unreachable for finite coordinates
		}
	}
	return bottleneck
}

// boruvkaState is the round state of bottleneckGridIn that the
// per-component phase-B searches read and write.
type boruvkaState struct {
	m   geom.Metric
	pts []geom.Point
	ci  *cellIndex

	candTo     []int32 // cached nearest foreign vertex, -1 = unknown
	candD      []float64
	noneWithin []float64 // no foreign vertex lies closer than this floor
	minD       []float64 // per-root cheapest outgoing edge this round
	minFrom    []int32
	minTo      []int32
	head       []int32 // per-root phase-B pending list, linked via next
	next       []int32
	root       []int32 // per-vertex root snapshot of the current round
	rs         ringSearch
	active     []int32 // phase-B buffer: the members still searching
}

// searchComponent runs one component's ring-synchronized phase-B search:
// every pending member expands one cell ring at a time, sharing the
// component's best outgoing weight as the prune bound.
func (st *boruvkaState) searchComponent(rv int32) {
	r := int(rv)
	active := st.active[:0]
	for v := st.head[r]; v >= 0; v = st.next[v] {
		if st.noneWithin[v] >= st.minD[r] && !math.IsInf(st.minD[r], 1) {
			// v's foreign-distance floor already matches the component's
			// phase-A bound, and the in-round bound only shrinks: v cannot
			// contribute a better edge. This is what keeps settled interior
			// vertices O(1) per round.
			continue
		}
		active = append(active, v)
		st.rs.bestD[v] = math.Inf(1)
		st.rs.bestTo[v] = -1
	}
	bound := st.minD[r]
	for ring := 0; len(active) > 0; ring++ {
		if ring > 0 && bound <= float64(ring-1)*st.ci.cell*ringSafety {
			// Unscanned rings hold only vertices farther than the
			// component's best edge; drop the stragglers without exact
			// caches, remembering the certified foreign-free radius around
			// each.
			for _, v := range active {
				st.candTo[v] = -1
				st.noneWithin[v] = math.Max(st.noneWithin[v], float64(ring-1)*st.ci.cell*ringSafety)
			}
			break
		}
		// After scanning ring k, everything unscanned is farther than
		// k·cell (up to ulps — hence ringSafety).
		certified := float64(ring) * st.ci.cell * ringSafety
		keep := active[:0]
		for _, v := range active {
			done := st.ci.scanRing(st.m, st.pts, st.root, rv, int(v), ring, &st.rs)
			if d := st.rs.bestD[v]; d < bound {
				bound = d
			}
			if done || st.rs.bestD[v] <= certified {
				if to := st.rs.bestTo[v]; to >= 0 {
					st.candTo[v], st.candD[v] = to, st.rs.bestD[v]
					if st.rs.bestD[v] < st.minD[r] {
						st.minD[r], st.minFrom[r], st.minTo[r] = st.rs.bestD[v], v, to
					}
				} else {
					st.candTo[v] = -1
				}
				continue
			}
			keep = append(keep, v)
		}
		active = keep
	}
	st.active = active[:0]
}

// unionFind is a plain disjoint-set forest with path halving and union by
// rank, sized once for the vertex count.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

func (u *unionFind) find(v int) int {
	for int(u.parent[v]) != v {
		u.parent[v] = u.parent[u.parent[v]] // path halving
		v = int(u.parent[v])
	}
	return v
}

// union merges the sets of a and b, reporting false when already joined.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}
