package wakeup

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

func TestChainMakespanSimple(t *testing.T) {
	ts := []Target{
		{ID: 1, Pos: geom.Pt(1, 0)},
		{ID: 2, Pos: geom.Pt(2, 0)},
	}
	// Greedy: 0→1 (1) →2 (1) = 2.
	if m := ChainMakespan(geom.Origin, ts); math.Abs(m-2) > 1e-12 {
		t.Errorf("chain = %v, want 2", m)
	}
	if m := ChainMakespan(geom.Origin, nil); m != 0 {
		t.Errorf("empty chain = %v", m)
	}
}

func TestChainTreeStructure(t *testing.T) {
	ts := []Target{
		{ID: 1, Pos: geom.Pt(3, 0)},
		{ID: 2, Pos: geom.Pt(1, 0)},
		{ID: 3, Pos: geom.Pt(2, 0)},
	}
	root := ChainTree(geom.Origin, ts)
	// Nearest-first: 2 (x=1), 3 (x=2), 1 (x=3).
	if root.ID != 2 {
		t.Fatalf("root = %d, want 2", root.ID)
	}
	if len(root.Children) != 1 || root.Children[0].ID != 3 {
		t.Fatalf("chain order broken: %+v", root)
	}
	if !Valid(root, []int{1, 2, 3}) {
		t.Error("chain tree invalid")
	}
	// Chain tree makespan equals ChainMakespan.
	if m, c := MakespanIn(nil, geom.Origin, root), ChainMakespan(geom.Origin, ts); math.Abs(m-c) > 1e-12 {
		t.Errorf("tree makespan %v != chain %v", m, c)
	}
}

func TestTreeBeatsChainAtScale(t *testing.T) {
	// With many spread-out targets, the binary wake-up tree must crush the
	// chain baseline (parallelism ~ doubling).
	rng := rand.New(rand.NewSource(31))
	ts := make([]Target, 100)
	for i := range ts {
		ts[i] = Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)}
	}
	chain := ChainMakespan(geom.Origin, ts)
	tree := MakespanIn(nil, geom.Origin, BuildTreeIn(nil, geom.Origin, ts))
	if tree >= chain/3 {
		t.Errorf("tree %v not ≥3x faster than chain %v", tree, chain)
	}
}

func TestChainNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		ts := make([]Target, n)
		for i := range ts {
			ts[i] = Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)}
		}
		opt := OptimalMakespan(geom.Origin, ts)
		chain := ChainMakespan(geom.Origin, ts)
		if chain < opt-1e-9 {
			t.Fatalf("trial %d: chain %v beats optimal %v", trial, chain, opt)
		}
	}
}
