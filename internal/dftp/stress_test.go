package dftp

import (
	"math/rand"
	"testing"

	"freezetag/internal/instance"
)

// Stress tests exercise the full pipeline at swarm sizes well above the
// regular suite; they are skipped with -short.

func TestStressASeparatorLargeWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	rng := rand.New(rand.NewSource(501))
	in := instance.RandomWalk(rng, 400, 0.9)
	res, _ := runAlg(t, ASeparator{}, in, 0)
	if res.Awakened != 400 {
		t.Fatalf("woke %d/400", res.Awakened)
	}
}

func TestStressASeparatorLongLine(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	in := instance.Line(500, 1)
	res, _ := runAlg(t, ASeparator{}, in, 0)
	p := in.ParamsIn(nil)
	// Makespan stays within the usual constant of the model even at scale.
	model := p.Rho + 1*8 // ℓ=1: lg(500) ≈ 9
	if res.Makespan > 40*model {
		t.Errorf("makespan %v blew past 40x model %v", res.Makespan, model)
	}
}

func TestStressAGridDenseDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	rng := rand.New(rand.NewSource(503))
	in := instance.UniformDisk(rng, 300, 8)
	runAlg(t, AGrid{}, in, 0)
}

func TestStressDeterminismAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	rng := rand.New(rand.NewSource(505))
	in := instance.RandomWalk(rng, 250, 0.85)
	a, _ := runAlg(t, ASeparator{}, in, 0)
	b, _ := runAlg(t, ASeparator{}, in, 0)
	if a.Makespan != b.Makespan || a.TotalEnergy != b.TotalEnergy {
		t.Fatalf("nondeterminism at scale: %v/%v vs %v/%v",
			a.Makespan, a.TotalEnergy, b.Makespan, b.TotalEnergy)
	}
}

func TestStressAdversarialMidSize(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	in := instance.DiskGridStatic(20, 2, 120)
	runAlg(t, ASeparator{}, in, 0)
}
