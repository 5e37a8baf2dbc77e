// Command bench is the solver service's end-to-end and per-layer benchmark.
//
// It serves service.New(service.Config{}) over a loopback listener and
// drives it with a closed loop: GOMAXPROCS clients over as many keep-alive
// connections, each sending its next request when the previous reply is
// read. Every workload runs set-up (service, listener, golden-fixture gate
// and warm-up, nine times, median reported), then a fixed-count measured
// phase. A traced run then replays a sample of the measured requests one at
// a time with spans around the benchmark's calls into each layer.
//
// Run from the repository root. One workload per process, printing one JSON
// result line (end-to-end metrics, or with -trace 1 the per-layer ones):
//
//	bash bench/run.sh -workload cold-family -seed 1 -seconds 25 -trace 0
//
// Every workload, each in a fresh child process, printing a table and
// writing results files and Perfetto traces:
//
//	bash bench/run.sh -seed 1 -runs 5 -out bench/results/seed-a
//
// Two sets of results files against the bounds in BENCHMARK.json:
//
//	bash bench/run.sh -compare bench/results/seed-a bench/results/seed-b
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// goldenPath holds the response fixtures the set-up gate replays.
const goldenPath = "internal/service/testdata/response_golden_pr5.json"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	root     string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	traceDir string
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// record is everything one run of one workload measured.
type record struct {
	Workload string `json:"workload"`
	Requests struct {
		Warmup   int `json:"warmup"`
		Measured int `json:"measured"`
		Failed   int `json:"failed"`
		Traced   int `json:"traced"`
	} `json:"requests"`
	EndToEnd map[string]metric      `json:"end_to_end"`
	PerLayer map[string]metric      `json:"per_layer"`
	Spans    map[string]spanSummary `json:"spans,omitempty"`
}

// runWorkload runs one workload in this process: set-up, the measured
// phase and, with o.trace, the traced replay.
func runWorkload(w *workload, o options) (*record, error) {
	warmN, measN, tracedN := w.counts(o.seconds, o.scale)
	p := w.build(o.seed, warmN, measN)
	goldens, err := loadGoldens(filepath.Join(o.root, goldenPath))
	if err != nil {
		return nil, err
	}
	spec, err := readSpec(o.root)
	if err != nil {
		return nil, err
	}
	clients := runtime.GOMAXPROCS(0)
	limit := time.Duration(5 * o.seconds * float64(time.Second))

	var srv *server
	setups := make([]time.Duration, 0, o.setups)
	for range o.setups {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		srv = startServer(clients)
		err := gate(srv, goldens)
		if err == nil {
			ph := srv.drive("warm-up", &p, p.warm, clients, limit)
			err = errors.Join(ph.firstErr, ph.check(&p))
		}
		if err != nil {
			srv.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}

	var ms0, ms1 runtime.MemStats
	st0 := srv.svc.Stats()
	runtime.ReadMemStats(&ms0)
	ph := srv.drive("measured", &p, p.meas, clients, limit)
	runtime.ReadMemStats(&ms1)
	st1 := srv.svc.Stats()
	peak := peakRSS()
	srv.close()
	if err := ph.check(&p); err != nil {
		return nil, err
	}

	rec := &record{Workload: w.name}
	rec.Requests.Warmup, rec.Requests.Measured, rec.Requests.Failed = warmN, measN, int(ph.failed.Load())
	measured := endToEnd(ph, setups, peak)
	maps.Copy(measured, loadLayers(ph, st0, st1, &ms0, &ms1))
	if o.trace {
		rp, overhead, err := replay(&p, p.meas[:tracedN])
		if err != nil {
			return nil, err
		}
		rec.Requests.Traced = tracedN
		maps.Copy(measured, replayLayers(rp, overhead))
		self := selfTimes(rp.tr.spans)
		rec.Spans = summarize(rp.tr.spans, self)
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(o.traceDir, w.name+".trace.json"), w.name, rp.tr.spans, self); err != nil {
			return nil, err
		}
	}
	// BENCHMARK.json decides which measurements are end-to-end metrics;
	// every other one is a per-layer metric.
	rec.EndToEnd, rec.PerLayer = map[string]metric{}, measured
	for _, m := range spec.EndToEnd {
		if v, ok := measured[m.Name]; ok {
			rec.EndToEnd[m.Name] = v
			delete(rec.PerLayer, m.Name)
		}
	}
	return rec, nil
}

// peakRSS is the process's peak resident set in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment identifies the box and build a results file came from.
type environment struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Traced     bool    `json:"traced"`
}

func currentEnvironment(o options) environment {
	env := environment{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Traced: o.trace}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Revision = s.Value
			case "vcs.modified":
				env.Dirty = s.Value == "true"
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// results is one results file: every workload of one run.
type results struct {
	Env       environment        `json:"env"`
	Workloads map[string]*record `json:"workloads"`
}

// runAll runs every workload in a fresh child process, runs times.
func runAll(o options, outDir string, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := currentEnvironment(o)
	// Number new runs after those already in outDir, so single runs of two
	// commits can alternate between their two directories.
	var prev []string
	if outDir != "" {
		if prev, err = filepath.Glob(filepath.Join(outDir, "run-*.json")); err != nil {
			return err
		}
	}
	for k := len(prev) + 1; k <= len(prev)+runs; k++ {
		res := results{Env: env, Workloads: map[string]*record{}}
		for _, w := range workloads {
			rec, err := runChild(exe, w.name, o)
			if err != nil {
				return fmt.Errorf("run %d, workload %s: %w", k, w.name, err)
			}
			res.Workloads[w.name] = rec
		}
		printTable(os.Stdout, k, &res)
		if outDir == "" {
			continue
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%d.json", k)), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runChild runs one workload in a child process, so its heap, GC state
// and peak RSS are its own, and reads back its record.
func runChild(exe, name string, o options) (*record, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-record", "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", trace, "-trace-dir", o.traceDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(lastLine(out), &rec); err != nil {
		return nil, fmt.Errorf("reading the child's record: %w", err)
	}
	return &rec, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func printTable(w io.Writer, run int, res *results) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "# run %d, seed %d, %s, %d cpus\n", run, res.Env.Seed, res.Env.GoVersion, res.Env.Nproc)
	for _, wl := range workloads {
		rec := res.Workloads[wl.name]
		rq := rec.Requests
		fmt.Fprintf(bw, "## %s: %d warm-up, %d measured (%d failed), %d traced\n", wl.name, rq.Warmup, rq.Measured, rq.Failed, rq.Traced)
		for _, ms := range []map[string]metric{rec.EndToEnd, rec.PerLayer} {
			for _, name := range slices.Sorted(maps.Keys(ms)) {
				fmt.Fprintf(bw, "%-14s %-32s %14.6g %s\n", wl.name, name, ms[name].Value, ms[name].Unit)
			}
		}
	}
}

// repoRoot is the nearest directory at or above the working directory that
// holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func main() {
	name := flag.String("workload", "", "run this one workload in this process and print one JSON result line")
	seed := flag.Int64("seed", 1, "seed every workload input is generated from")
	seconds := flag.Float64("seconds", 25, "measured-phase length on the reference box; sets the request counts")
	trace := flag.Int("trace", 1, "1: also run the traced replay (per-layer metrics, Perfetto traces); 0: end-to-end only")
	scale := flag.Float64("scale", 1, "multiplies every request count")
	out := flag.String("out", "", "without -workload: directory to write run-<k>.json results files to")
	runs := flag.Int("runs", 1, "without -workload: how many times to run every workload")
	traceDir := flag.String("trace-dir", "", "directory for the Perfetto trace files (default .bench_build/traces)")
	full := flag.Bool("record", false, "with -workload: print the full workload record instead of the result line")
	cmp := flag.Bool("compare", false, "compare two results directories: -compare <dirA> <dirB>")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results directories"))
		}
		ok, err := compareDirs(os.Stdout, root, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *scale <= 0 || *seconds <= 0 || *runs < 1 {
		fatal(errors.New("-scale, -seconds and -runs must be positive"))
	}
	o := options{root: root, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace != 0, traceDir: *traceDir, setups: 9}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(root, ".bench_build", "traces")
	}
	if *name == "" {
		if err := runAll(o, *out, *runs); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	rec, err := runWorkload(w, o)
	if err != nil {
		fatal(err)
	}
	var line any = rec
	if !*full {
		metrics := rec.EndToEnd
		if o.trace {
			metrics = rec.PerLayer
		}
		line = struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{true, rec.Requests.Measured, rec.Requests.Failed, metrics}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
