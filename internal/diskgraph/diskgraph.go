// Package diskgraph derives the δ-disk-graph parameters the paper's bounds
// are stated in: the connectivity threshold ℓ* (the bottleneck edge of the
// Euclidean MST) and the ℓ-eccentricity ξℓ (max shortest-path distance from
// the source in the ℓ-disk graph).
//
// The vertex set is always P ∪ {s} with the source s stored at index 0 and
// the points of P at indices 1..n, matching the paper's convention.
package diskgraph

import (
	"math"

	"freezetag/internal/geom"
	"freezetag/internal/spatial"
)

// vertices assembles the vertex slice {source} ∪ points, source first.
func vertices(source geom.Point, points []geom.Point) []geom.Point {
	pts := make([]geom.Point, 0, len(points)+1)
	pts = append(pts, source)
	return append(pts, points...)
}

// eccentricity returns ξ = max_v dist(pts[0], v) in the δ-ball graph of pts
// under m (non-nil): edges join vertices within metric distance δ (the
// spatial grid's closed-ball-with-Eps predicate) and weigh that distance.
// It equals the minimum weighted depth of a spanning tree rooted at pts[0]
// (the shortest-path tree realizes it; no spanning tree can do better since
// tree paths are graph paths), and is +Inf when the graph is disconnected.
//
// Dijkstra runs straight over a δ-cell spatial grid: each settled vertex
// queries its δ-ball once and relaxes every member, so no adjacency is
// stored. Dijkstra's final distances do not depend on the order in which
// neighbours are relaxed, so the value is the same float as over any
// materialized adjacency.
//
// At δ ≤ 0 only coincident vertices are joined: ξ is 0 when every vertex
// sits on the source and +Inf otherwise.
func eccentricity(m geom.Metric, pts []geom.Point, delta float64) float64 {
	if delta <= 0 {
		for _, p := range pts[1:] {
			if p != pts[0] {
				return math.Inf(1)
			}
		}
		return 0
	}
	idx := spatial.NewGridInCap(m, delta, len(pts))
	for i, p := range pts {
		idx.Insert(i, p)
	}
	dist := make([]float64, len(pts))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	pq := distHeap{{v: 0, d: 0}}
	var ball []int
	for len(pq) > 0 {
		item := pq.pop()
		if item.d > dist[item.v] {
			continue
		}
		p := pts[item.v]
		ball = idx.Within(ball[:0], p, delta)
		for _, j := range ball {
			if nd := item.d + m.Dist(p, pts[j]); nd < dist[j] {
				dist[j] = nd
				pq.push(distItem{v: j, d: nd})
			}
		}
	}
	var ecc float64
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
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
