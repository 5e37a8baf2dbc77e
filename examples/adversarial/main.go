// Adversarial: demonstrates the paper's two lower-bound constructions.
//
//  1. Theorem 2: a replay adversary hides one robot per disk of the ℓ/2-grid
//     at the spot the algorithm sweeps last, forcing Ω(ρ + ℓ²log(ρ/ℓ))
//     makespan out of ASeparator.
//  2. Theorem 3: with a budget below π(ℓ²−1)/2 the source provably cannot
//     even find a single adversarially placed robot in its ℓ-ball.
package main

import (
	"fmt"
	"log"

	"freezetag/internal/adversary"
	"freezetag/internal/dftp"
	"freezetag/internal/instance"
)

func main() {
	// --- Theorem 2 ------------------------------------------------------
	rho, ell := 12.0, 2.0
	n := int(rho * rho / (ell * ell))
	fmt.Printf("Theorem 2 replay adversary (ρ=%g, ℓ=%g, %d hidden robots)\n", rho, ell, n)

	base := instance.CentersOnly(rho, ell, n)
	tup := dftp.Tuple{Ell: ell, Rho: rho, N: base.N()}
	easy, _, err := dftp.Solve(dftp.ASeparator{}, base, tup, 0)
	if err != nil {
		log.Fatal(err)
	}
	hard, err := adversary.Theorem2(dftp.ASeparator{}, rho, ell, n, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  friendly placement (disk centers): makespan %.1f\n", easy.Makespan)
	fmt.Printf("  adversarial placement (replay):    makespan %.1f\n", hard.Makespan)
	fmt.Printf("  lower-bound model ρ+ℓ²lg(ρ/ℓ):     %.1f\n\n", rho+ell*ell*2.58)

	// --- Theorem 3 ------------------------------------------------------
	ell3 := 6.0
	fmt.Printf("Theorem 3 energy threshold (ℓ=%g, threshold π(ℓ²−1)/2 ≈ %.1f)\n",
		ell3, 3.14159*(ell3*ell3-1)/2)
	for _, mult := range []float64{0.25, 0.5, 1.0, 8.0, 14.0} {
		res := adversary.Theorem3In(nil, ell3, mult*res3Threshold(ell3))
		verdict := "robot NOT found — budget below the discovery bound"
		if res.Found {
			verdict = fmt.Sprintf("robot found after %.1f distance", res.Energy)
		}
		fmt.Printf("  budget %6.1f (%.2f× threshold): %s\n", res.Budget, mult, verdict)
	}
}

func res3Threshold(ell float64) float64 { return 3.14159265 * (ell*ell - 1) / 2 }
