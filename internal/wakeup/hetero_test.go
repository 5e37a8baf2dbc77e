package wakeup

import (
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

func profiledTargets(rng *rand.Rand, n int, w float64) []Target {
	ts := randomTargets(rng, n, w)
	for i := range ts {
		ts[i].Speed = 0.25 + rng.Float64()*1.5
		if rng.Intn(2) == 0 {
			ts[i].Capacity = 2 + rng.Float64()*20
		}
	}
	return ts
}

// Heterogeneous trees stay valid wake-up trees: every target appears exactly
// once, and the profile rides along on its node.
func TestBuildTreeHeteroValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		ts := profiledTargets(rng, 1+rng.Intn(40), 10)
		root := BuildTreeIn(nil, geom.Origin, ts)
		if !Valid(root, idsOf(ts)) {
			t.Fatalf("trial %d: invalid heterogeneous tree", trial)
		}
		byID := make(map[int]Target, len(ts))
		for _, tg := range ts {
			byID[tg.ID] = tg
		}
		var check func(n *Node)
		check = func(n *Node) {
			if n == nil {
				return
			}
			want := byID[n.ID]
			if n.Speed != want.Speed || n.Capacity != want.Capacity {
				t.Fatalf("trial %d: node %d carries profile (%g,%g), want (%g,%g)",
					trial, n.ID, n.Speed, n.Capacity, want.Speed, want.Capacity)
			}
			for _, c := range n.Children {
				check(c)
			}
		}
		check(root)
	}
}

// Zero-valued profiles are the homogeneous model: a tree built from targets
// with Speed/Capacity left zero must be structurally identical to the plain
// BuildTreeIn result, and all-unit speeds likewise (the greedy weights divide
// by exactly 1).
func TestBuildTreeUnitProfilesMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		ts := randomTargets(rng, 1+rng.Intn(30), 8)
		plain := BuildTreeIn(nil, geom.Origin, ts)
		unit := append([]Target(nil), ts...)
		for i := range unit {
			unit[i].Speed = 1
		}
		got := BuildTreeIn(nil, geom.Origin, unit)
		var same func(a, b *Node) bool
		same = func(a, b *Node) bool {
			if (a == nil) != (b == nil) {
				return false
			}
			if a == nil {
				return true
			}
			if a.ID != b.ID || len(a.Children) != len(b.Children) {
				return false
			}
			for i := range a.Children {
				if !same(a.Children[i], b.Children[i]) {
					return false
				}
			}
			return true
		}
		if !same(plain, got) {
			t.Fatalf("trial %d: unit-speed tree differs structurally from the plain tree", trial)
		}
		if MakespanIn(nil, geom.Origin, plain) != MakespanProfiledIn(nil, geom.Origin, 1, got) {
			t.Fatalf("trial %d: unit-speed profiled makespan differs from plain", trial)
		}
	}
}

// Slowing every robot by a uniform factor scales the profiled makespan by
// exactly 1/factor when the waker slows too (every leg divides by the same
// speed), and never improves it when only the swarm slows.
func TestMakespanProfiledSpeedScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		ts := randomTargets(rng, 2+rng.Intn(20), 6)
		base := BuildTreeIn(nil, geom.Origin, ts)
		ms := MakespanIn(nil, geom.Origin, base)

		slowed := append([]Target(nil), ts...)
		for i := range slowed {
			slowed[i].Speed = 0.5
		}
		root := BuildTreeIn(nil, geom.Origin, slowed)
		// Waker also at 0.5: the whole schedule stretches by exactly 2 for
		// the same tree shape; the heterogeneous builder may find a better
		// shape, so allow ≤ with a slack of 1e-9 only on the upper side.
		all := MakespanProfiledIn(nil, geom.Origin, 0.5, root)
		if all > 2*ms+1e-9 {
			t.Fatalf("trial %d: uniformly halving speeds more than doubled the makespan: %v vs %v",
				trial, all, ms)
		}
		if all < ms-1e-9 {
			t.Fatalf("trial %d: halving speeds improved the makespan: %v vs %v", trial, all, ms)
		}
		// Unit-speed waker, slow swarm: still never beats the homogeneous run.
		mixed := MakespanProfiledIn(nil, geom.Origin, 1, root)
		if mixed < ms-1e-9 {
			t.Fatalf("trial %d: slow swarm beat the homogeneous makespan: %v vs %v", trial, mixed, ms)
		}
	}
}

// The capacity-aware handoff: when one child subtree costs more than the
// woken robot's private capacity but the other fits, the builder routes the
// woken robot down the affordable side. Probed statistically — across many
// random capacity-constrained instances the profiled makespan of the built
// tree must never exceed the plain tree's profiled makespan by more than the
// swap could save, and at least one instance must differ structurally.
func TestBuildTreeCapacityAwareHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	differed := false
	for trial := 0; trial < 30; trial++ {
		ts := profiledTargets(rng, 6+rng.Intn(20), 12)
		root := BuildTreeIn(nil, geom.Origin, ts)
		if !Valid(root, idsOf(ts)) {
			t.Fatalf("trial %d: capacity-constrained tree invalid", trial)
		}
		unit := append([]Target(nil), ts...)
		for i := range unit {
			unit[i].Speed, unit[i].Capacity = 0, 0
		}
		plain := BuildTreeIn(nil, geom.Origin, unit)
		var same func(a, b *Node) bool
		same = func(a, b *Node) bool {
			if (a == nil) != (b == nil) {
				return false
			}
			if a == nil {
				return true
			}
			if a.ID != b.ID || len(a.Children) != len(b.Children) {
				return false
			}
			for i := range a.Children {
				if !same(a.Children[i], b.Children[i]) {
					return false
				}
			}
			return true
		}
		if !same(root, plain) {
			differed = true
		}
	}
	if !differed {
		t.Error("30 profiled instances all produced the homogeneous tree shape — the heterogeneous builder is inert")
	}
}
