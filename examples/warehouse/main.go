// Warehouse: an aisle-structured robot fleet must be woken under a per-robot
// energy budget — the scenario motivating the paper's energy-constrained
// algorithms. AGrid runs on the minimum budget Θ(ℓ²); AWave spends more
// energy for a much better makespan once the fleet is spread out; and a
// starved budget below the Theorem 3 threshold cannot even get started.
package main

import (
	"fmt"
	"log"

	"freezetag"
)

// buildWarehouse lays robots along aisles: `aisles` columns of `perAisle`
// robots with `pitch` spacing, aisle spacing `gap`, plus a cross-aisle rail
// at the top connecting the aisles. The docking station (source) sits at the
// origin, at the head of the first aisle.
func buildWarehouse(aisles, perAisle int, pitch, gap float64) *freezetag.Instance {
	var pts []freezetag.Point
	for a := 0; a < aisles; a++ {
		x := float64(a) * gap
		for i := 1; i <= perAisle; i++ {
			pts = append(pts, freezetag.Pt(x, float64(i)*pitch))
		}
	}
	top := float64(perAisle) * pitch
	for a := 0; a < aisles-1; a++ {
		x := float64(a) * gap
		for s := pitch; s < gap; s += pitch {
			pts = append(pts, freezetag.Pt(x+s, top))
		}
	}
	return freezetag.NewInstance("warehouse", freezetag.Pt(0, 0), pts)
}

func main() {
	fleet := buildWarehouse(4, 12, 1.0, 4.0)
	p := freezetag.ParamsOfIn(nil, fleet)
	tup := freezetag.TupleForIn(nil, fleet)
	fmt.Printf("warehouse fleet: n=%d, ℓ*=%.3g, ρ*=%.3g, ξ=%.3g\n",
		fleet.N(), p.Ell, p.Rho, p.Xi)

	// AGrid on the paper's minimal energy regime Θ(ℓ²).
	r := 2 * tup.Ell
	gridBudget := 10 * (r*r + 20*r)
	res, _, err := freezetag.SolveIn(nil, freezetag.AGrid, fleet, tup, gridBudget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAGrid  (budget %.0f = Θ(ℓ²)):\n", gridBudget)
	fmt.Printf("  all awake: %v, makespan %.1f, max energy %.1f\n",
		res.AllAwake, res.Makespan, res.MaxEnergy)

	// AWave with its Θ(ℓ²logℓ) energy appetite.
	res2, _, err := freezetag.SolveIn(nil, freezetag.AWave, fleet, tup, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAWave (energy Θ(ℓ²logℓ)):\n")
	fmt.Printf("  all awake: %v, makespan %.1f, max energy %.1f\n",
		res2.AllAwake, res2.Makespan, res2.MaxEnergy)

	// Starving AGrid demonstrates the Theorem 3 regime: with too little
	// energy the fleet cannot even be discovered.
	tiny := tup.Ell * tup.Ell / 2
	res3, _, err := freezetag.SolveIn(nil, freezetag.AGrid, fleet, tup, tiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAGrid starved (budget %.1f < π(ℓ²−1)/2):\n", tiny)
	fmt.Printf("  all awake: %v (awakened %d/%d), %d robots halted out of energy\n",
		res3.AllAwake, res3.Awakened, fleet.N(), len(res3.Violations))
}
