// Quickstart: wake up a random swarm of 40 sleeping robots with ASeparator
// and print the run metrics — the smallest end-to-end use of the library's
// public API (instance generation → algorithm → simulation).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"freezetag"
)

func main() {
	// A swarm laid out by a random walk from the source: dense, organic,
	// and ℓ-connected by construction.
	rng := rand.New(rand.NewSource(42))
	swarm := freezetag.RandomWalk(rng, 40, 0.9)

	// The tuple (ℓ, ρ, n) is the knowledge the source starts with; derive
	// an admissible one from the instance's exact parameters.
	tup := freezetag.TupleForIn(nil, swarm)
	fmt.Printf("swarm %q: n=%d, tuple (ℓ=%.3g, ρ=%.3g)\n",
		swarm.Name, swarm.N(), tup.Ell, tup.Rho)

	res, rep, err := freezetag.SolveIn(nil, freezetag.ASeparator, swarm, tup, 0 /* unlimited energy */)
	if err != nil {
		log.Fatalf("simulation failed: %v", err)
	}
	if !res.AllAwake {
		log.Fatalf("algorithm left %d robots asleep", swarm.N()-res.Awakened)
	}
	fmt.Printf("all %d robots awake\n", res.Awakened)
	fmt.Printf("makespan:      %.2f (time of the last wake-up)\n", res.Makespan)
	fmt.Printf("max energy:    %.2f (longest distance moved by one robot)\n", res.MaxEnergy)
	fmt.Printf("total energy:  %.2f\n", res.TotalEnergy)
	fmt.Printf("rounds:        %d\n", rep.Rounds)
}
