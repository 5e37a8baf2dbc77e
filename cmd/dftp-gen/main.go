// Command dftp-gen generates dFTP instances (including the paper's
// lower-bound constructions) and writes them as JSON.
//
// Usage:
//
//	dftp-gen -family line -n 32 -param 1.5 -out line.json
//	dftp-gen -family path -ell 2 -rho 40 -B 3 -xi 100 -out path.json
//	dftp-gen -family diskgrid -ell 2 -rho 16 -n 64 -out hard.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"freezetag/internal/instance"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dftp-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family = flag.String("family", "walk", "line, walk, disk, grid, chain, path, diskgrid, centers")
		n      = flag.Int("n", 32, "number of robots")
		param  = flag.Float64("param", 1.0, "family parameter (spacing / step / radius)")
		ell    = flag.Float64("ell", 2, "ℓ for path/diskgrid/centers")
		rho    = flag.Float64("rho", 16, "ρ for path/diskgrid/centers")
		b      = flag.Float64("B", 3, "energy budget for the Theorem 6 path")
		xi     = flag.Float64("xi", 0, "prescribed ξ for the Theorem 6 path (0 = ρ)")
		seed   = flag.Int64("seed", 1, "random seed")
		out    = flag.String("out", "", "output JSON path (default stdout summary only)")
	)
	flag.Parse()

	var in *instance.Instance
	var err error
	rng := rand.New(rand.NewSource(*seed))
	switch strings.ToLower(*family) {
	case "line":
		in = instance.Line(*n, *param)
	case "walk":
		in = instance.RandomWalk(rng, *n, *param)
	case "disk":
		in = instance.UniformDisk(rng, *n, *param*10)
	case "grid":
		k := 1
		for k*k < *n {
			k++
		}
		in = instance.GridSwarm(k, *param)
	case "chain":
		in = instance.ClusterChain(rng, *n/8+1, 8, *param*5, *param)
	case "path":
		x := *xi
		if x <= 0 {
			x = *rho
		}
		in, err = instance.BuildPath(instance.PathSpec{Ell: *ell, Rho: *rho, B: *b, Xi: x})
		if err != nil {
			return err
		}
	case "diskgrid":
		in = instance.DiskGridStatic(*rho, *ell, *n)
	case "centers":
		in = instance.CentersOnly(*rho, *ell, *n)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}

	p := in.ParamsIn(nil)
	fmt.Printf("generated %s: n=%d ℓ*=%.4g ρ*=%.4g ξ=%.4g\n", in.Name, in.N(), p.Ell, p.Rho, p.Xi)
	if *out != "" {
		if err := in.Save(*out); err != nil {
			return err
		}
		fmt.Printf("written to %s\n", *out)
	}
	return nil
}
