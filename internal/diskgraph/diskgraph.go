// Package diskgraph provides the δ-disk-graph analytics the paper's
// parameters are defined on: connectivity, the connectivity threshold ℓ*
// (the bottleneck edge of the Euclidean MST), the ℓ-eccentricity ξℓ (max
// shortest-path distance from the source in the ℓ-disk graph), and
// hop-bounded paths.
//
// The vertex set is always P ∪ {s} with the source s stored at index 0 and
// the points of P at indices 1..n, matching the paper's convention.
package diskgraph

import (
	"math"
	"sort"

	"freezetag/internal/geom"
	"freezetag/internal/spatial"
)

// Graph is the δ-disk graph over a source and a point set. Edges connect
// vertices at metric distance ≤ δ and are weighted by that distance (ℓ2
// unless built with NewIn — under other metrics the "disks" are the metric's
// balls: diamonds for ℓ1, squares for ℓ∞).
type Graph struct {
	// Pts holds all vertex positions; Pts[0] is the source.
	Pts   []geom.Point
	Delta float64
	adj   [][]edge
}

type edge struct {
	to int
	w  float64
}

// NewIn builds the δ-ball graph of {source} ∪ points under metric m (nil
// defaults to ℓ2). The adjacency lists are built with a spatial grid, so
// construction is near-linear for bounded density; it degrades gracefully
// for dense sets.
func NewIn(m geom.Metric, source geom.Point, points []geom.Point, delta float64) *Graph {
	pts := make([]geom.Point, 0, len(points)+1)
	pts = append(pts, source)
	pts = append(pts, points...)
	return newFromPts(geom.MetricOrL2(m), pts, delta)
}

// newFromPts builds the δ-ball graph over an already-assembled vertex slice
// (taking ownership of it) — the parameter derivation materializes the
// slice once and shares it between the bottleneck, radius, and eccentricity
// passes. m must be non-nil.
func newFromPts(m geom.Metric, pts []geom.Point, delta float64) *Graph {
	g := &Graph{Pts: pts, Delta: delta, adj: make([][]edge, len(pts))}
	if delta <= 0 {
		return g
	}
	idx := spatial.NewGridInCap(m, delta, len(pts))
	for i, p := range pts {
		idx.Insert(i, p)
	}
	var buf []int
	for i, p := range pts {
		buf = idx.Within(buf[:0], p, delta)
		for _, j := range buf {
			if j == i {
				continue
			}
			g.adj[i] = append(g.adj[i], edge{to: j, w: m.Dist(p, pts[j])})
		}
		sort.Slice(g.adj[i], func(a, b int) bool { return g.adj[i][a].to < g.adj[i][b].to })
	}
	return g
}

// N returns the number of vertices (n+1 including the source).
func (g *Graph) N() int { return len(g.Pts) }

// Neighbors returns the indices adjacent to vertex v in ascending order.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i] = e.to
	}
	return out
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Connected reports whether the graph is connected. An empty or single-vertex
// graph is connected.
func (g *Graph) Connected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.to] {
				seen[e.to] = true
				count++
				stack = append(stack, e.to)
			}
		}
	}
	return count == n
}

// ShortestDists runs Dijkstra from vertex src and returns the array of
// shortest-path distances (math.Inf(1) for unreachable vertices).
func (g *Graph) ShortestDists(src int) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := distHeap{{v: src, d: 0}}
	for len(pq) > 0 {
		item := pq.pop()
		if item.d > dist[item.v] {
			continue
		}
		for _, e := range g.adj[item.v] {
			if nd := item.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(distItem{v: e.to, d: nd})
			}
		}
	}
	return dist
}

// Eccentricity returns ξ = max_v dist(src, v), the weighted eccentricity of
// src. It equals the minimum weighted depth of a spanning tree rooted at src
// (the shortest-path tree realizes it; no spanning tree can do better since
// tree paths are graph paths). Returns +Inf when the graph is disconnected.
func (g *Graph) Eccentricity(src int) float64 {
	dist := g.ShortestDists(src)
	var ecc float64
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// HopDists returns the hop counts (unweighted BFS distances) from src, with
// -1 for unreachable vertices.
func (g *Graph) HopDists(src int) []int {
	n := g.N()
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[v] {
			if hops[e.to] == -1 {
				hops[e.to] = hops[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return hops
}

// ShortestPath returns one shortest path (as vertex indices) from src to dst,
// or nil if dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) []int {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := distHeap{{v: src, d: 0}}
	for len(pq) > 0 {
		item := pq.pop()
		if item.d > dist[item.v] {
			continue
		}
		if item.v == dst {
			break
		}
		for _, e := range g.adj[item.v] {
			if nd := item.d + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = item.v
				pq.push(distItem{v: e.to, d: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil
	}
	var path []int
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

type distItem struct {
	v int
	d float64
}

// distHeap is a typed binary min-heap by distance. The hand-rolled sift
// loops perform the same comparisons container/heap would, without boxing
// every item through an interface on push and pop.
type distHeap []distItem

func (h distHeap) less(i, j int) bool { return h[i].d < h[j].d }

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
