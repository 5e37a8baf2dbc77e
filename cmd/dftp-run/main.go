// Command dftp-run solves one dFTP instance with one of the paper's
// algorithms — or races several of them as a portfolio — and prints the run
// metrics.
//
// Usage:
//
//	dftp-run -alg aseparator|agrid|awave|aseparatorauto|portfolio
//	         [-metric l1|l2|linf|lp:<p>]
//	         [-algs aseparator,agrid,...] [-objective min-makespan]
//	         [-instance file.json] [-family line|walk|disk|grid|chain]
//	         [-n 32] [-param 1.0] [-budget 0] [-seed 1]
//	         [-profiles "2,1:5,0.5:3"]
//	         [-faults "crash-stop,rate=0.3,seed=42,repair"]
//	         [-trace out.csv] [-json]
//
// Without -instance, an instance is generated from -family/-n/-param; the
// family may carry heterogeneity modifiers ("walk+speedband:2+capband:30",
// see instance.Family). With -metric, all distances — travel times, energy,
// the radius-1 look, and the derived (ℓ, ρ) tuple — are measured in the
// given ℓp metric (default ℓ2); unknown or degenerate metrics (lp:0,
// lp:NaN) are rejected up front. With -profiles, the robots get explicit
// per-robot capability profiles: a comma-separated "speed[:capacity]" list,
// one entry per robot, overriding any instance- or modifier-supplied
// profiles. With -alg portfolio, the -algs entrants race concurrently under
// -objective ("min-makespan", "min-energy", "weighted:0.7,0.3",
// "first-under-budget:makespan=120,energy=50") and the winning schedule is
// reported with per-racer stats. With -faults, the run executes under a
// deterministic fault plan: the spec is the kind followed by comma-separated
// options ("crash-stop,rate=0.3,seed=42,repair"; kinds crash-stop,
// crash-recovery, wake-drop, wake-dup, byzantine; options rate=, seed=,
// byz=, down=, repair), or a raw JSON object matching the service's
// "faults" field. With -json, the result is printed as the solver service's
// SolveResponse (or PortfolioResponse) — byte-comparable with a POST
// /v1/solve (or /v1/portfolio) reply for the same request.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/service"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dftp-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algName  = flag.String("alg", "aseparator", "algorithm: aseparator, agrid, awave, aseparatorauto, portfolio")
		metName  = flag.String("metric", "l2", "distance metric: "+geom.MetricNames())
		algsList = flag.String("algs", "aseparator,agrid,awave,aseparatorauto", "portfolio entrants, in priority order (with -alg portfolio)")
		objName  = flag.String("objective", "min-makespan", "portfolio objective (with -alg portfolio)")
		instPath = flag.String("instance", "", "instance JSON file (overrides -family)")
		family   = flag.String("family", "walk", "generated family: line, walk, disk, grid, chain")
		n        = flag.Int("n", 32, "number of robots for generated instances")
		param    = flag.Float64("param", 1.0, "family parameter (spacing / step / radius)")
		budget   = flag.Float64("budget", 0, "per-robot energy budget (0 = unconstrained)")
		seed     = flag.Int64("seed", 1, "random seed for generated instances (and the portfolio's racer streams)")
		profSpec = flag.String("profiles", "", `per-robot "speed[:capacity]" list, comma-separated (empty = homogeneous)`)
		faultStr = flag.String("faults", "", `fault plan: "<kind>[,rate=R][,seed=S][,byz=K][,down=D][,repair]" or JSON (empty = fault-free)`)
		traceOut = flag.String("trace", "", "write the event trace as CSV to this file")
		jsonOut  = flag.Bool("json", false, "print the result as the service's response JSON")
	)
	flag.Parse()

	metric, err := geom.ParseMetric(*metName)
	if err != nil {
		return fmt.Errorf("-metric: %w", err)
	}
	inst, err := loadOrGenerate(*instPath, *family, *n, *param, *seed)
	if err != nil {
		return err
	}
	if *profSpec != "" {
		profiles, err := parseProfiles(*profSpec)
		if err != nil {
			return fmt.Errorf("-profiles: %w", err)
		}
		inst.Profiles = profiles
	}
	if err := inst.Validate(); err != nil {
		return err
	}
	faults, err := dftp.ParseFaults(*faultStr, ",")
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	// One parameter derivation serves both the tuple and the printed
	// params, ξ included.
	params := inst.ParamsIn(metric)
	tup := dftp.TupleFromParams(params)
	if !*jsonOut {
		fmt.Printf("instance: %s (n=%d)\n", inst.Name, inst.N())
		fmt.Printf("metric:   %s\n", metric.Name())
		if inst.Heterogeneous() {
			fmt.Printf("profiles: %d robots, min speed %.4g\n", len(inst.Profiles), inst.MinSpeed())
		}
		fmt.Printf("params:   ℓ*=%.4g ρ*=%.4g ξ=%.4g  tuple=(ℓ=%.4g, ρ=%.4g, n=%d)\n",
			params.Ell, params.Rho, params.Xi, tup.Ell, tup.Rho, tup.N)
		if faults != nil {
			fmt.Printf("faults:   %s rate=%.4g seed=%d repair=%v\n",
				faults.Kind, faults.Rate, faults.Seed, faults.Repair)
		}
	}

	if strings.EqualFold(*algName, "portfolio") {
		return runPortfolio(*algsList, *objName, metric, inst, tup, *budget, *seed, faults, *traceOut, *jsonOut)
	}

	alg, err := service.AlgorithmByName(*algName)
	if err != nil {
		return err
	}
	// Only pay for event recording when the trace is actually wanted.
	var rec *trace.Recorder
	var traceFn func(sim.Event)
	if *traceOut != "" {
		rec = trace.New()
		traceFn = rec.Record
	}
	res, rep, err := dftp.SolveFaulted(context.Background(), nil, metric, alg, inst, tup, *budget, faults, traceFn)
	if err != nil {
		return fmt.Errorf("simulation: %w", err)
	}

	if *jsonOut {
		hash := instance.HashRequestFaulted(metric, alg.Name(), inst, tup.Ell, tup.Rho, tup.N, *budget, faults.Canon())
		out := service.NewSolveResponse(hash, alg, metric, inst, tup, *budget, res, rep)
		out.Faults = service.NewFaultsEcho(faults, res, inst.N())
		body, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(body))
	} else {
		fmt.Printf("algorithm: %s\n", alg.Name())
		printRun(res, rep, inst.N())
		printFaults(faults, res)
	}

	if *traceOut != "" {
		if err := writeTraceCSV(*traceOut, rec); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Printf("trace:     %d events -> %s\n", rec.Len(), *traceOut)
		}
	}
	if !res.AllAwake {
		return fmt.Errorf("run left %d robots asleep", inst.N()-res.Awakened)
	}
	return nil
}

// runPortfolio races the -algs entrants under the metric and reports the
// winner.
func runPortfolio(algsList, objName string, metric geom.Metric, inst *instance.Instance, tup dftp.Tuple,
	budget float64, seed int64, faults *dftp.Faults, traceOut string, jsonOut bool) error {
	var algs []dftp.Algorithm
	for _, name := range strings.Split(algsList, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		alg, err := service.AlgorithmByName(name)
		if err != nil {
			return err
		}
		algs = append(algs, alg)
	}
	obj, err := portfolio.ParseObjective(objName)
	if err != nil {
		return err
	}
	pf := portfolio.Portfolio{Algorithms: algs, Objective: obj, Seed: seed}
	res, err := portfolio.Race(pf, inst, tup, budget,
		portfolio.Options{Trace: traceOut != "", Metric: metric, Faults: faults})
	if err != nil {
		return fmt.Errorf("race: %w", err)
	}

	if jsonOut {
		hash := instance.HashRequestFaulted(metric, pf.Name(), inst, tup.Ell, tup.Rho, tup.N, budget, faults.Canon())
		out := service.NewPortfolioResponse(hash, pf, metric, inst, tup, budget, res)
		out.Faults = service.NewFaultsEcho(faults, res.Res, inst.N())
		body, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Println(string(body))
	} else {
		fmt.Printf("portfolio: %s\n", pf.Name())
		fmt.Printf("winner:    %s (racer %d, satisfied=%v, %d cancelled)\n",
			res.Racers[res.Winner].Algorithm, res.Winner, res.Satisfied, res.Cancelled)
		for _, rr := range res.Racers {
			switch rr.Status {
			case portfolio.StatusWon, portfolio.StatusCompleted:
				fmt.Printf("  racer %d %-14s %-9s makespan=%.4f maxEnergy=%.4f score=%.4f\n",
					rr.Index, rr.Algorithm, rr.Status, rr.Makespan, rr.MaxEnergy, rr.Score)
			case portfolio.StatusError:
				fmt.Printf("  racer %d %-14s %-9s %s\n", rr.Index, rr.Algorithm, rr.Status, rr.Err)
			default:
				fmt.Printf("  racer %d %-14s %-9s\n", rr.Index, rr.Algorithm, rr.Status)
			}
		}
		printRun(res.Res, res.Rep, inst.N())
		printFaults(faults, res.Res)
	}

	if traceOut != "" {
		rec := trace.New()
		for _, ev := range res.Events {
			rec.Record(ev)
		}
		if err := writeTraceCSV(traceOut, rec); err != nil {
			return err
		}
		if !jsonOut {
			fmt.Printf("trace:     %d events (winner) -> %s\n", rec.Len(), traceOut)
		}
	}
	if !res.Res.AllAwake {
		return fmt.Errorf("winning run left %d robots asleep", inst.N()-res.Res.Awakened)
	}
	return nil
}

// printRun prints the shared result block of a single run.
func printRun(res sim.Result, rep *dftp.Report, n int) {
	fmt.Printf("makespan:  %.4f\n", res.Makespan)
	fmt.Printf("duration:  %.4f\n", res.Duration)
	fmt.Printf("awakened:  %d/%d (all awake: %v)\n", res.Awakened, n, res.AllAwake)
	fmt.Printf("energy:    max=%.4f total=%.4f\n", res.MaxEnergy, res.TotalEnergy)
	fmt.Printf("rounds:    %d\n", rep.Rounds)
	if len(rep.Misses) > 0 {
		fmt.Printf("schedule misses: %d (first: %s)\n", len(rep.Misses), rep.Misses[0])
	}
	if len(res.Violations) > 0 {
		fmt.Printf("budget violations: %d (first: %s)\n", len(res.Violations), res.Violations[0])
	}
}

// printFaults prints the fault/repair block of a faulted run.
func printFaults(f *dftp.Faults, res sim.Result) {
	if f == nil {
		return
	}
	fs := res.Faults
	fmt.Printf("faults:    injected=%d (crash=%d recover=%d drop=%d dup=%d byz=%d) skips=%d repairs=%d\n",
		fs.Injected(), fs.CrashStops, fs.Recoveries, fs.WakeDrops, fs.WakeDups,
		fs.ByzTakeovers, fs.RosterSkips, fs.Repairs)
}

func writeTraceCSV(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	return rec.WriteCSV(f)
}

func loadOrGenerate(path, family string, n int, param float64, seed int64) (*instance.Instance, error) {
	if path != "" {
		return instance.Load(path)
	}
	return instance.Family(family, n, param, seed)
}

// parseProfiles parses the -profiles spec: a comma-separated list of
// "speed" or "speed:capacity" entries, one per sleeping robot, e.g.
// "2,1:5,0.5:3". Validation of the parsed values (speeds finite and > 0)
// happens in instance.Validate.
func parseProfiles(spec string) ([]instance.Profile, error) {
	parts := strings.Split(spec, ",")
	profiles := make([]instance.Profile, 0, len(parts))
	for i, part := range parts {
		speedStr, capStr, hasCap := strings.Cut(strings.TrimSpace(part), ":")
		speed, err := strconv.ParseFloat(speedStr, 64)
		if err != nil {
			return nil, fmt.Errorf("entry %d: bad speed %q", i, speedStr)
		}
		p := instance.Profile{Speed: speed}
		if hasCap {
			if p.Capacity, err = strconv.ParseFloat(capStr, 64); err != nil {
				return nil, fmt.Errorf("entry %d: bad capacity %q", i, capStr)
			}
		}
		profiles = append(profiles, p)
	}
	return profiles, nil
}
