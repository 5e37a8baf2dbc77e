// Command dftp-trace runs one algorithm on one instance with full event
// tracing and prints the phase/wake timeline that regenerates the content of
// the paper's Figures 1–2 (ASeparator phases) and the wave pictures of
// AGrid/AWave.
//
// Usage:
//
//	dftp-trace -alg aseparator -family diskgrid -rho 12 -ell 2 -n 48 [-csv out.csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/trace"
	"freezetag/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dftp-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algName = flag.String("alg", "aseparator", "aseparator, agrid, awave")
		family  = flag.String("family", "diskgrid", "diskgrid, line, centers")
		ell     = flag.Float64("ell", 2, "ℓ")
		rho     = flag.Float64("rho", 12, "ρ")
		n       = flag.Int("n", 48, "number of robots")
		csvOut  = flag.String("csv", "", "write the raw event trace as CSV")
		plot    = flag.Int("plot", 0, "render this many ASCII wake-front frames")
	)
	flag.Parse()

	var inst *instance.Instance
	switch strings.ToLower(*family) {
	case "diskgrid":
		inst = instance.DiskGridStatic(*rho, *ell, *n)
	case "centers":
		inst = instance.CentersOnly(*rho, *ell, *n)
	case "line":
		inst = instance.Line(*n, *ell)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}

	var alg dftp.Algorithm
	switch strings.ToLower(*algName) {
	case "aseparator":
		alg = dftp.ASeparator{}
	case "agrid":
		alg = dftp.AGrid{}
	case "awave":
		alg = dftp.AWave{}
	default:
		return fmt.Errorf("unknown algorithm %q", *algName)
	}

	rec := trace.New()
	res, rep, err := dftp.SolveFaulted(context.Background(), nil, nil, alg, inst, dftp.TupleForIn(nil, inst), 0, nil, rec.Record)
	if err != nil {
		return err
	}

	fmt.Printf("%s on %s: makespan %.3f, %d events, rounds/depth %d\n",
		alg.Name(), inst.Name, res.Makespan, rec.Len(), rep.Rounds)
	for _, kind := range []string{"spawn", "look", "move", "wake", "barrier", "done"} {
		fmt.Printf("  %-8s %d\n", kind, rec.CountKind(kind))
	}

	// Wake-front timeline in tenths of the makespan — the "wave" picture.
	times, counts := rec.WakeFront()
	fmt.Println("wake front (t, awake):")
	if len(times) > 0 {
		step := res.Makespan / 10
		idx := 0
		for b := 1; b <= 10; b++ {
			limit := float64(b) * step
			for idx < len(times) && times[idx] <= limit {
				idx++
			}
			cnt := 0
			if idx > 0 {
				cnt = counts[idx-1]
			}
			fmt.Printf("  t=%8.2f  %4d/%d\n", limit, cnt, inst.N())
		}
	}

	if *plot > 0 {
		fmt.Println(viz.Legend())
		for _, fr := range viz.Replay(72, 24, inst.Source, inst.Points, rec.Events(), *plot) {
			fmt.Printf("t = %.2f  (%d/%d awake)\n%s", fr.T, fr.Awake, inst.N(), fr.Canvas)
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *csvOut)
	}
	if !res.AllAwake {
		return fmt.Errorf("%d robots left asleep", inst.N()-res.Awakened)
	}
	return nil
}
