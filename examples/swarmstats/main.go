// Swarmstats: computes the paper's instance parameters (ℓ*, ρ*, ξ) for
// several swarm families and shows Proposition 1's chain
// ℓ* ≤ ρ* ≤ ξ ≤ n·ℓ* holding on each, along with the makespan models the
// parameters feed. A small tour of the analytics behind the algorithms.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"

	"freezetag"
)

func main() {
	rng := rand.New(rand.NewSource(2024))
	families := []*freezetag.Instance{
		freezetag.Line(40, 1.5),                  // maximal eccentricity
		freezetag.GridSwarm(7, 2),                // dense lattice
		freezetag.RandomWalk(rng, 60, 0.8),       // organic swarm
		freezetag.UniformDisk(rng, 80, 6),        // dense disk
		freezetag.ClusterChain(rng, 4, 8, 5, .7), // sparse clusters
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "family\tn\tℓ*\tρ*\tξ\tn·ℓ*\tProp.1 ok\tASep model\tAGrid model")
	for _, in := range families {
		p := freezetag.ParamsOfIn(nil, in)
		ok := p.Ell <= p.Rho+1e-9 && p.Rho <= p.Xi+1e-9 && p.Xi <= float64(p.N)*p.Ell+1e-9
		asep := p.Rho + p.Ell*p.Ell*math.Log2(math.Max(2, p.Rho/p.Ell))
		agrid := p.Ell * p.Xi
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%v\t%.1f\t%.1f\n",
			in.Name, p.N, p.Ell, p.Rho, p.Xi, float64(p.N)*p.Ell, ok, asep, agrid)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nASep model = ρ + ℓ²·lg(ρ/ℓ)   (Theorem 1's makespan shape)")
	fmt.Println("AGrid model = ℓ·ξ              (Theorem 4's makespan shape)")
	fmt.Println("Smaller ℓ* favors AGrid; spread-out swarms (large ξ) favor ASeparator.")
}
