// Package wakeup implements centralized wake-up trees and their distributed
// realization.
//
// A wake-up tree (the paper's §1.1) is a rooted tree over robot positions in
// which every node has at most two children; a robot that wakes node x hands
// x one subtree and keeps the other (Algorithm 1), so the set of awake robots
// doubles its workforce along the way. BuildTreeIn constructs a tree whose
// makespan is O(diam) via recursive longest-side bisection: waking the point
// nearest to the current position costs at most the current region's
// diameter, and each two levels of bisection halve the region diameter, so
// the total is a geometric series ≈ 2(√2+√1.25)/(1-1/2) · R ≈ 10.1·R for a
// width-R square — the same O(1)-approximation regime as [YBMK15, BCGH24]
// (their constants are tighter; only O(R) matters downstream).
package wakeup

import (
	"math"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// Node is one robot in a wake-up tree. Children has length ≤ 2; Children[0]
// is the subtree the newly woken robot takes over, Children[1] the subtree
// the waker keeps (Algorithm 1's child1/child2). Speed and Capacity carry
// the robot's capability profile when the tree was built from heterogeneous
// targets (both zero in the homogeneous model: speed 0 reads as 1,
// capacity 0 as unconstrained).
type Node struct {
	ID       int
	Pos      geom.Point
	Speed    float64
	Capacity float64
	Children []*Node
}

// Target pairs a sleeping robot's id with its (initial) position and,
// optionally, its capability profile: Speed 0 means unit speed and
// Capacity 0 means unconstrained, so zero-valued targets reproduce the
// homogeneous model exactly.
type Target struct {
	ID       int
	Pos      geom.Point
	Speed    float64
	Capacity float64
}

// speedOf normalizes a profile speed: 0 (absent) reads as unit speed.
func speedOf(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// BuildTreeIn builds a wake-up tree over targets for a robot starting at
// start, greedy under metric m: each robot wakes its nearest target first.
// It returns nil for an empty target set. The tree's makespan from start is
// O(diam(targets ∪ {start})): see the package comment. The recursion's
// region bisection is axis-aligned and works unchanged for every supported
// metric; since all ℓp distances are within a constant factor of each other
// in the plane, the O(diam) guarantee carries over with the metric's
// constant.
//
// Heterogeneous targets (any Speed ∉ {0, 1} or Capacity > 0) switch the
// greedy to speed-weighted time (argmin dist/speed: a fast robot slightly
// farther away is woken first, because waking it is an investment in the
// rest of the propagation) and make the Algorithm 1 handoff capacity-aware:
// the deeper subtree goes to the woken robot when it is fast enough — and
// has the capacity — to carry it, and stays with the waker otherwise.
// Homogeneous targets take the exact pre-profile code path: every weight
// divides by speed 1, and no handoff swap ever fires.
func BuildTreeIn(m geom.Metric, start geom.Point, targets []Target) *Node {
	var b Builder
	return b.BuildIn(m, start, targets)
}

// Builder carries wake-tree construction state and owns the backing storage
// of the trees it builds: nodes, child-pointer pairs, and propagation
// handlers all come from grow-only slabs. A zero Builder is ready to use and
// behaves like the one-shot BuildTreeIn; a Builder fetched with BuilderOf
// lives in an engine's scratch stash, where its slabs are rewound between
// the runs of a pooled engine — so every tree it ever built is invalidated
// when the engine is Reset, and steady-state tree construction allocates
// nothing.
type Builder struct {
	m      geom.Metric
	hetero bool
	nodes  arena.Slab[Node]
	kids   arena.Slab[*Node]
	hands  arena.Slab[propHandler]
	ts     []Target // working copy of the current build's targets
	stage  []Target // WakeAsleep's targets, staged for BuildIn
	part   []Target // bisection partition scratch (see build)
}

// BuilderOf returns the engine's pooled tree builder.
func BuilderOf(e *sim.Engine) *Builder {
	return sim.ScratchOf(e, "wakeup.builder", func() *Builder { return &Builder{} })
}

// ResetRun implements sim.RunScratch: trees and handlers from the previous
// run are invalidated, their storage reused.
func (b *Builder) ResetRun() {
	b.nodes.Reset()
	b.kids.Reset()
	b.hands.Reset()
}

// BuildIn is BuildTreeIn building from the Builder's pooled storage. The
// returned tree is bit-identical to BuildTreeIn's — same nearest-first
// greedy, same bisection, same handoff rules — and remains valid until the
// Builder's next ResetRun.
func (b *Builder) BuildIn(m geom.Metric, start geom.Point, targets []Target) *Node {
	if len(targets) == 0 {
		return nil
	}
	// Inline fold of geom.BoundingRect over {start} ∪ target positions, in
	// the same order and with the same math.Min/Max operations, without
	// materializing the point slice.
	region := geom.Rect{Min: start, Max: start}
	hetero := false
	for _, t := range targets {
		region.Min.X = math.Min(region.Min.X, t.Pos.X)
		region.Min.Y = math.Min(region.Min.Y, t.Pos.Y)
		region.Max.X = math.Max(region.Max.X, t.Pos.X)
		region.Max.Y = math.Max(region.Max.Y, t.Pos.Y)
		if (t.Speed > 0 && t.Speed != 1) || t.Capacity > 0 {
			hetero = true
		}
	}
	b.m = geom.MetricOrL2(m)
	b.hetero = hetero
	b.ts = append(b.ts[:0], targets...)
	return b.build(b.ts, region, start)
}

// newNode carves one node from the slab. Slab chunks never move, so the
// returned pointer stays valid across future allocations.
func (b *Builder) newNode(t Target) *Node {
	ns := b.nodes.Take(1)
	ns = append(ns, Node{ID: t.ID, Pos: t.Pos, Speed: t.Speed, Capacity: t.Capacity})
	return &ns[0]
}

// build constructs the subtree for the targets inside region, to be woken by
// a robot currently at from. It owns (and may reorder) ts.
func (b *Builder) build(ts []Target, region geom.Rect, from geom.Point) *Node {
	if len(ts) == 0 {
		return nil
	}
	m := b.m
	// Wake the target nearest in travel time to the current position: cost ≤
	// diam(region)/minSpeed. Homogeneous speeds are exactly 1, so the weight
	// is the plain distance and the pre-profile tree is reproduced. The
	// (time, ID) minimum is unique — ids are — so it does not depend on the
	// order the targets are scanned in.
	nearest := 0
	bd := math.Inf(1)
	for i, t := range ts {
		if d := m.Dist(from, t.Pos) / speedOf(t.Speed); d < bd ||
			(d == bd && (t.ID < ts[nearest].ID)) {
			nearest, bd = i, d
		}
	}
	ts[0], ts[nearest] = ts[nearest], ts[0]
	node := b.newNode(ts[0])
	rest := ts[1:]
	if len(rest) == 0 {
		return node
	}
	// Degenerate region: all positions (numerically) coincide, so geometric
	// bisection cannot separate them. Chain the remaining targets; every
	// edge has length ≈ 0 so the makespan is unaffected.
	if region.Diam() <= 4*geom.Eps {
		child := b.build(rest, region, node.Pos)
		if child != nil {
			ks := b.kids.Take(1)
			node.Children = append(ks, child)
		}
		return node
	}
	r1, r2 := region.SplitLongestSide()
	// Stable in-place partition of rest into r1's targets followed by r2's:
	// r1 members compact forward, r2 members divert to the scratch buffer
	// and are copied back behind them. Both halves keep their relative
	// order, so the recursion sees exactly the in1/in2 sequences the
	// append-based partition produced.
	b.part = b.part[:0]
	n1 := 0
	for _, t := range rest {
		if r1.ContainsStrict(t.Pos) || (!r2.ContainsStrict(t.Pos) && r1.Contains(t.Pos)) {
			rest[n1] = t
			n1++
		} else {
			b.part = append(b.part, t)
		}
	}
	copy(rest[n1:], b.part)
	c1 := b.build(rest[:n1], r1, node.Pos)
	c2 := b.build(rest[n1:], r2, node.Pos)
	// Children[0] goes to the woken robot, Children[1] stays with the waker.
	if b.hetero && c1 != nil && c2 != nil && b.swapHandoff(node, c1, c2) {
		c1, c2 = c2, c1
	}
	nc := 0
	if c1 != nil {
		nc++
	}
	if c2 != nil {
		nc++
	}
	if nc > 0 {
		ks := b.kids.Take(nc)
		if c1 != nil {
			ks = append(ks, c1)
		}
		if c2 != nil {
			ks = append(ks, c2)
		}
		node.Children = ks
	}
	return node
}

// swapHandoff decides whether the Algorithm 1 handoff at node should be
// flipped so the woken robot takes c2 instead of c1. Two deterministic
// rules, capacity first:
//
//   - a capacity-limited woken robot must not be handed a subtree whose
//     critical path it cannot afford when the other one is affordable;
//   - otherwise, a fast woken robot (speed > 1) takes the deeper subtree
//     and a slow one (speed < 1) the shallower, leaving the other branch to
//     the waker, whose speed the builder cannot know statically.
func (b *Builder) swapHandoff(node, c1, c2 *Node) bool {
	if node.Capacity > 0 {
		cost1 := MakespanIn(b.m, node.Pos, c1)
		cost2 := MakespanIn(b.m, node.Pos, c2)
		if cost1 > node.Capacity && cost2 <= node.Capacity {
			return true
		}
		if cost2 > node.Capacity && cost1 <= node.Capacity {
			return false
		}
	}
	sp := speedOf(node.Speed)
	d1, d2 := Depth(c1), Depth(c2)
	if sp > 1 {
		return d2 > d1
	}
	if sp < 1 {
		return d1 > d2
	}
	return false
}

// MakespanIn returns the time to wake the whole tree when the waking robot
// starts at start and every robot moves at unit speed under metric m: the
// node's wake time is the arrival time of its waker, and after a wake both
// robots proceed in parallel per Algorithm 1.
func MakespanIn(m geom.Metric, start geom.Point, root *Node) float64 {
	if root == nil {
		return 0
	}
	mm := geom.MetricOrL2(m)
	arrive := mm.Dist(start, root.Pos)
	var sub float64
	switch len(root.Children) {
	case 0:
	case 1:
		sub = MakespanIn(mm, root.Pos, root.Children[0])
	default:
		sub = math.Max(
			MakespanIn(mm, root.Pos, root.Children[0]),
			MakespanIn(mm, root.Pos, root.Children[1]),
		)
	}
	return arrive + sub
}

// MakespanProfiledIn is MakespanIn under per-robot speeds: the waker
// travels to the root at startSpeed, and the Algorithm 1 split sends the
// woken robot (root.Speed) down Children[0] while the waker continues at
// startSpeed down Children[1]. Zero speeds read as 1, so a profile-free
// tree yields exactly MakespanIn.
func MakespanProfiledIn(m geom.Metric, start geom.Point, startSpeed float64, root *Node) float64 {
	if root == nil {
		return 0
	}
	mm := geom.MetricOrL2(m)
	arrive := mm.Dist(start, root.Pos) / speedOf(startSpeed)
	var sub float64
	switch len(root.Children) {
	case 0:
	case 1:
		// The woken robot takes the unique child (see Propagate).
		sub = MakespanProfiledIn(mm, root.Pos, root.Speed, root.Children[0])
	default:
		sub = math.Max(
			MakespanProfiledIn(mm, root.Pos, root.Speed, root.Children[0]),
			MakespanProfiledIn(mm, root.Pos, startSpeed, root.Children[1]),
		)
	}
	return arrive + sub
}

// Size returns the number of nodes in the tree.
func Size(root *Node) int {
	if root == nil {
		return 0
	}
	n := 1
	for _, c := range root.Children {
		n += Size(c)
	}
	return n
}

// Valid reports whether the tree is structurally a wake-up tree over exactly
// the given target ids: binary, and covering each id exactly once.
func Valid(root *Node, ids []int) bool {
	seen := make(map[int]bool, len(ids))
	if !walk(root, seen) {
		return false
	}
	if len(seen) != len(ids) {
		return false
	}
	for _, id := range ids {
		if !seen[id] {
			return false
		}
	}
	return true
}

func walk(n *Node, seen map[int]bool) bool {
	if n == nil {
		return true
	}
	if len(n.Children) > 2 || seen[n.ID] {
		return false
	}
	seen[n.ID] = true
	for _, c := range n.Children {
		if !walk(c, seen) {
			return false
		}
	}
	return true
}

// Depth returns the maximum number of edges on a root-to-leaf path.
func Depth(root *Node) int {
	if root == nil {
		return -1
	}
	d := 0
	for _, c := range root.Children {
		if cd := Depth(c) + 1; cd > d {
			d = cd
		}
	}
	return d
}
