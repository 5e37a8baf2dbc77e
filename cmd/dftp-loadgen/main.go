// Command dftp-loadgen drives a running dftp-serve with a configurable
// traffic mix and reports client-side latency, throughput, and cache
// behavior — the measurement half of the daemon's observability story.
//
// Usage:
//
//	dftp-loadgen [-addr http://127.0.0.1:8080] [-duration 10s]
//	             [-concurrency 8] [-qps 0] [-qps-curve 50,100,200]
//	             [-mix "weight=3,endpoint=solve,algorithm=agrid,family=walk,n=32,param=0.9,seeds=20"]...
//	             [-seed 1] [-report out.json] [-label name]
//
// Traffic model. Each -mix flag defines one weighted request shape; a
// request picks a shape in proportion to its weight, then a seed uniformly
// from the shape's seed pool — the pool size is the knob that trades cache
// hits against cold solves (seeds=1 is all-hot, seeds=10⁶ is all-cold).
// Shape keys:
//
//	weight=N       relative weight (default 1)
//	endpoint=E     solve (default) or portfolio
//	algorithm=A    solve algorithm (default agrid)
//	algorithms=A+B portfolio entrants (default agrid+awave)
//	family=F       instance family (default walk)
//	n=N            robots (default 32)
//	param=P        family parameter (default 0.9)
//	metric=M       geometry: l2 (default), l1, linf, lp:<p>
//	speed=S        heterogeneous profiles: every robot gets speed S
//	budget=B       per-robot energy budget (0 = unconstrained)
//	seeds=K        seed pool size (default 20)
//	faults=SPEC    fault plan: "<kind>[;rate=R][;seed=S][;byz=K][;down=D][;repair]"
//	               (semicolon-separated — commas delimit mix keys;
//	               empty = fault-free)
//	name=X         label in the report (default mix<i>)
//
// Pacing. -concurrency alone runs a closed loop: that many workers issue
// requests back-to-back, so offered load adapts to server latency. -qps > 0
// switches to an open loop: requests start on a fixed schedule regardless
// of completions (bounded by -max-inflight; arrivals past the bound are
// counted as saturated, not silently dropped — open-loop honesty is the
// point of the mode). -qps-curve runs the whole workload once per step,
// producing a latency-under-load curve in a single report.
//
// Measurement. Client latency lands in power-of-two-bucket histograms
// (internal/obs — the same ones the server uses), and each response's
// Server-Timing header is parsed to split client latency into server-side
// stages (resolve/queue/sim/marshal) versus network + client overhead.
// Outcomes (hit/coalesced/miss/shed/error) come from the header's cache
// descriptor, so rates match the server's own accounting. The report is a
// BENCH-style JSON document: environment block plus per-step and per-mix
// p50/p95/p99 latencies and hit/shed rates.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/obs"
	"freezetag/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dftp-loadgen:", err)
		os.Exit(1)
	}
}

// mixFlag collects repeated -mix flags.
type mixFlag []string

func (m *mixFlag) String() string     { return strings.Join(*m, " ") }
func (m *mixFlag) Set(v string) error { *m = append(*m, v); return nil }

// shape is one parsed traffic shape.
type shape struct {
	Name       string   `json:"name"`
	Weight     int      `json:"weight"`
	Endpoint   string   `json:"endpoint"`
	Algorithm  string   `json:"algorithm,omitempty"`
	Algorithms []string `json:"algorithms,omitempty"`
	Family     string   `json:"family"`
	N          int      `json:"n"`
	Param      float64  `json:"param"`
	Metric     string   `json:"metric,omitempty"`
	Speed      float64  `json:"speed,omitempty"`
	Budget     float64  `json:"budget,omitempty"`
	Seeds      int      `json:"seeds"`

	Faults *dftp.Faults `json:"faults,omitempty"`
}

func parseShape(spec string, idx int) (shape, error) {
	sh := shape{
		Name:     fmt.Sprintf("mix%d", idx),
		Weight:   1,
		Endpoint: "solve",
		Family:   "walk",
		N:        32,
		Param:    0.9,
		Seeds:    20,
	}
	alg := ""
	algs := ""
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return sh, fmt.Errorf("mix %q: %q is not key=value", spec, kv)
		}
		var err error
		switch k {
		case "name":
			sh.Name = v
		case "weight":
			sh.Weight, err = strconv.Atoi(v)
		case "endpoint":
			sh.Endpoint = v
		case "algorithm":
			alg = v
		case "algorithms":
			algs = v
		case "family":
			sh.Family = v
		case "n":
			sh.N, err = strconv.Atoi(v)
		case "param":
			sh.Param, err = strconv.ParseFloat(v, 64)
		case "metric":
			sh.Metric = v
		case "speed":
			sh.Speed, err = strconv.ParseFloat(v, 64)
		case "budget":
			sh.Budget, err = strconv.ParseFloat(v, 64)
		case "seeds":
			sh.Seeds, err = strconv.Atoi(v)
		case "faults":
			sh.Faults, err = dftp.ParseFaults(v, ";")
		default:
			return sh, fmt.Errorf("mix %q: unknown key %q", spec, k)
		}
		if err != nil {
			return sh, fmt.Errorf("mix %q: key %q: %v", spec, k, err)
		}
	}
	switch sh.Endpoint {
	case "solve":
		if alg == "" {
			alg = "agrid"
		}
		sh.Algorithm = alg
	case "portfolio":
		if algs == "" {
			algs = "agrid+awave"
		}
		sh.Algorithms = strings.Split(algs, "+")
	default:
		return sh, fmt.Errorf("mix %q: endpoint %q (want solve or portfolio)", spec, sh.Endpoint)
	}
	if sh.Weight < 1 || sh.Seeds < 1 || sh.N < 1 {
		return sh, fmt.Errorf("mix %q: weight, seeds, and n must be ≥ 1", spec)
	}
	return sh, nil
}

// body renders the request payload for one (shape, seed) draw. Marshaling
// through the service's own wire types keeps the generator honest: it can
// only send what the API can parse.
func (sh *shape) body(seed int64) ([]byte, error) {
	var profiles []instance.Profile
	if sh.Speed > 0 {
		profiles = make([]instance.Profile, sh.N)
		for i := range profiles {
			profiles[i] = instance.Profile{Speed: sh.Speed}
		}
	}
	if sh.Endpoint == "portfolio" {
		return json.Marshal(service.PortfolioRequest{
			Algorithms: sh.Algorithms,
			Metric:     sh.Metric,
			Family:     sh.Family,
			N:          sh.N,
			Param:      sh.Param,
			Seed:       seed,
			Budget:     sh.Budget,
			Profiles:   profiles,
			Faults:     sh.Faults,
		})
	}
	return json.Marshal(service.SolveRequest{
		Algorithm: sh.Algorithm,
		Metric:    sh.Metric,
		Family:    sh.Family,
		N:         sh.N,
		Param:     sh.Param,
		Seed:      seed,
		Budget:    sh.Budget,
		Profiles:  profiles,
		Faults:    sh.Faults,
	})
}

// serverTiming is one parsed Server-Timing header.
type serverTiming struct {
	outcome string                   // cache;desc=...
	traceID string                   // traceid;desc="..."
	stages  map[string]time.Duration // name;dur=ms
}

// parseServerTiming decodes the subset of the Server-Timing grammar the
// daemon emits: comma-separated entries, each `name;dur=<ms>` or
// `name;desc=<token|quoted>`.
func parseServerTiming(h string) serverTiming {
	st := serverTiming{stages: map[string]time.Duration{}}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) < 2 {
			continue
		}
		name := parts[0]
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				continue
			}
			switch k {
			case "dur":
				if ms, err := strconv.ParseFloat(v, 64); err == nil {
					st.stages[name] = time.Duration(ms * float64(time.Millisecond))
				}
			case "desc":
				v = strings.Trim(v, `"`)
				switch name {
				case "cache":
					st.outcome = v
				case "traceid":
					st.traceID = v
				}
			}
		}
	}
	return st
}

// collector aggregates one run step's client-side measurements. Histograms
// are the server's lock-free power-of-two ones; the map updates take a
// mutex (loadgen rates are far below the histograms' design point, the
// shared code path is the point).
type collector struct {
	client  *obs.Histogram // end-to-end client latency (seconds)
	server  *obs.Histogram // server total per Server-Timing
	network *obs.Histogram // client minus server: network + client overhead

	mu        sync.Mutex
	requests  int64
	netErrors int64
	saturated int64 // open-loop arrivals skipped at the in-flight bound
	outcomes  map[string]int64
	statuses  map[int]int64
	stages    map[string]*obs.Histogram
	perMix    map[string]*mixStats
	traceSeen int64 // responses carrying a traceid entry
}

type mixStats struct {
	requests int64
	outcomes map[string]int64
	client   *obs.Histogram
}

const histMin, histMax = -20, 5

func newCollector(shapes []shape) *collector {
	c := &collector{
		client:   obs.NewHistogram(histMin, histMax),
		server:   obs.NewHistogram(histMin, histMax),
		network:  obs.NewHistogram(histMin, histMax),
		outcomes: map[string]int64{},
		statuses: map[int]int64{},
		stages:   map[string]*obs.Histogram{},
		perMix:   map[string]*mixStats{},
	}
	for _, st := range []string{"resolve", "queue", "sim", "marshal"} {
		c.stages[st] = obs.NewHistogram(histMin, histMax)
	}
	for _, sh := range shapes {
		c.perMix[sh.Name] = &mixStats{outcomes: map[string]int64{}, client: obs.NewHistogram(histMin, histMax)}
	}
	return c
}

func (c *collector) record(mix string, status int, lat time.Duration, st serverTiming, netErr bool) {
	c.client.Record(lat.Seconds())
	if total, ok := st.stages["total"]; ok {
		c.server.Record(total.Seconds())
		if net := lat - total; net > 0 {
			c.network.Record(net.Seconds())
		}
	}
	for name, d := range st.stages {
		if h, ok := c.stages[name]; ok {
			h.Record(d.Seconds())
		}
	}
	c.mu.Lock()
	c.requests++
	if netErr {
		c.netErrors++
	}
	if status != 0 {
		c.statuses[status]++
	}
	if st.outcome != "" {
		c.outcomes[st.outcome]++
	}
	if st.traceID != "" {
		c.traceSeen++
	}
	if m := c.perMix[mix]; m != nil {
		m.requests++
		if st.outcome != "" {
			m.outcomes[st.outcome]++
		}
		m.client.Record(lat.Seconds())
	}
	c.mu.Unlock()
}

// Report wire types: a BENCH-style document with one entry per load step.

type latencySummary struct {
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
	MeanMs float64 `json:"meanMs"`
	Count  uint64  `json:"count"`
}

func summarizeHist(h *obs.Histogram) latencySummary {
	s := h.Snapshot()
	mean := 0.0
	if s.Count > 0 {
		mean = s.Sum / float64(s.Count)
	}
	return latencySummary{
		P50Ms:  s.Quantile(0.50) * 1e3,
		P95Ms:  s.Quantile(0.95) * 1e3,
		P99Ms:  s.Quantile(0.99) * 1e3,
		MeanMs: mean * 1e3,
		Count:  s.Count,
	}
}

type mixReport struct {
	Name     string           `json:"name"`
	Requests int64            `json:"requests"`
	HitRate  float64          `json:"hitRate"`
	Outcomes map[string]int64 `json:"outcomes"`
	Latency  latencySummary   `json:"latency"`
}

type stepReport struct {
	TargetQPS     float64                   `json:"targetQps"` // 0 = closed loop
	Concurrency   int                       `json:"concurrency"`
	DurationSec   float64                   `json:"durationSec"`
	Requests      int64                     `json:"requests"`
	AchievedQPS   float64                   `json:"achievedQps"`
	NetErrors     int64                     `json:"netErrors"`
	Saturated     int64                     `json:"saturated,omitempty"`
	Outcomes      map[string]int64          `json:"outcomes"`
	Statuses      map[string]int64          `json:"statuses"`
	HitRate       float64                   `json:"hitRate"`
	ShedRate      float64                   `json:"shedRate"`
	CoalesceRate  float64                   `json:"coalesceRate"`
	TraceIDRate   float64                   `json:"traceIdRate"` // responses carrying a traceid Server-Timing entry
	ClientLatency latencySummary            `json:"clientLatency"`
	ServerLatency latencySummary            `json:"serverLatency"`
	NetworkLag    latencySummary            `json:"networkLag"`
	Stages        map[string]latencySummary `json:"stages"`
	ServerMemory  *memReport                `json:"serverMemory,omitempty"`
	PerMix        []mixReport               `json:"perMix"`
}

// memReport is the server's allocation pressure over one load step, diffed
// from /metricsz scrapes taken immediately before and after the step. It
// ties the latency curves to their usual cause at saturation: bytes
// allocated per request and the GC cycles they force.
type memReport struct {
	GCCycles         int64   `json:"gcCycles"`         // completed GC cycles during the step
	AllocBytes       int64   `json:"allocBytes"`       // heap bytes allocated during the step
	AllocBytesPerReq float64 `json:"allocBytesPerReq"` // allocBytes / step requests
	HeapStartBytes   int64   `json:"heapStartBytes"`   // live heap at step start
	HeapEndBytes     int64   `json:"heapEndBytes"`     // live heap at step end
}

// scrapeMem pulls the runtime gauges from /metricsz. A zero value with
// ok=false (endpoint missing, old server) just omits serverMemory from the
// report rather than failing the run.
type memSample struct {
	gcCycles   int64
	allocTotal int64
	heapAlloc  int64
}

func scrapeMem(client *http.Client, addr string) (memSample, bool) {
	var s memSample
	resp, err := client.Get(addr + "/metricsz")
	if err != nil {
		return s, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return s, false
	}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "go_gc_cycles_total":
			dst = &s.gcCycles
		case "go_alloc_bytes_total":
			dst = &s.allocTotal
		case "go_heap_alloc_bytes":
			dst = &s.heapAlloc
		default:
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		*dst = int64(v)
		found++
	}
	return s, found == 3
}

type report struct {
	Tool        string       `json:"tool"`
	Label       string       `json:"label,omitempty"`
	Description string       `json:"description"`
	Environment environment  `json:"environment"`
	Target      string       `json:"target"`
	Mixes       []shape      `json:"mixes"`
	Steps       []stepReport `json:"steps"`
}

type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note,omitempty"`
}

func (c *collector) reportStep(targetQPS float64, concurrency int, elapsed time.Duration, shapes []shape) stepReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	sr := stepReport{
		TargetQPS:     targetQPS,
		Concurrency:   concurrency,
		DurationSec:   elapsed.Seconds(),
		Requests:      c.requests,
		NetErrors:     c.netErrors,
		Saturated:     c.saturated,
		Outcomes:      c.outcomes,
		Statuses:      map[string]int64{},
		ClientLatency: summarizeHist(c.client),
		ServerLatency: summarizeHist(c.server),
		NetworkLag:    summarizeHist(c.network),
		Stages:        map[string]latencySummary{},
	}
	if elapsed > 0 {
		sr.AchievedQPS = float64(c.requests) / elapsed.Seconds()
	}
	for code, n := range c.statuses {
		sr.Statuses[strconv.Itoa(code)] = n
	}
	for name, h := range c.stages {
		sr.Stages[name] = summarizeHist(h)
	}
	served := c.outcomes["hit"] + c.outcomes["coalesced"] + c.outcomes["miss"]
	if served > 0 {
		sr.HitRate = float64(c.outcomes["hit"]+c.outcomes["coalesced"]) / float64(served)
		sr.CoalesceRate = float64(c.outcomes["coalesced"]) / float64(served)
	}
	if seen := served + c.outcomes["shed"]; seen > 0 {
		sr.ShedRate = float64(c.outcomes["shed"]) / float64(seen)
	}
	if c.requests > 0 {
		sr.TraceIDRate = float64(c.traceSeen) / float64(c.requests)
	}
	for _, sh := range shapes {
		m := c.perMix[sh.Name]
		mr := mixReport{Name: sh.Name, Requests: m.requests, Outcomes: m.outcomes, Latency: summarizeHist(m.client)}
		if served := m.outcomes["hit"] + m.outcomes["coalesced"] + m.outcomes["miss"]; served > 0 {
			mr.HitRate = float64(m.outcomes["hit"]+m.outcomes["coalesced"]) / float64(served)
		}
		sr.PerMix = append(sr.PerMix, mr)
	}
	return sr
}

// pickShape draws a shape index in proportion to weight.
func pickShape(shapes []shape, totalWeight int, rng *rand.Rand) *shape {
	w := rng.IntN(totalWeight)
	for i := range shapes {
		w -= shapes[i].Weight
		if w < 0 {
			return &shapes[i]
		}
	}
	return &shapes[len(shapes)-1]
}

// fire issues one request and records it.
func fire(client *http.Client, addr string, sh *shape, seed int64, col *collector) {
	body, err := sh.body(seed)
	if err != nil {
		col.record(sh.Name, 0, 0, serverTiming{}, true)
		return
	}
	start := time.Now()
	resp, err := client.Post(addr+"/v1/"+sh.Endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		col.record(sh.Name, 0, time.Since(start), serverTiming{}, true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	col.record(sh.Name, resp.StatusCode, lat, parseServerTiming(resp.Header.Get("Server-Timing")), false)
}

// runStep drives one load step and returns its report. baseSeed offsets
// the request seed space (fixed across steps, so a warm cache stays warm
// from one step to the next, as it would in production); stream picks the
// RNG stream — callers must vary it per step, or every step would replay
// the exact shape/seed draw sequence of the one before it and report an
// artificially perfect hit rate.
func runStep(addr string, shapes []shape, totalWeight int, qps float64, concurrency, maxInflight int,
	duration time.Duration, baseSeed, stream int64, client *http.Client) stepReport {
	col := newCollector(shapes)
	stop := time.After(duration)
	start := time.Now()

	if qps <= 0 {
		// Closed loop: concurrency workers, back-to-back requests.
		var wg sync.WaitGroup
		done := make(chan struct{})
		go func() { <-stop; close(done) }()
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(baseSeed), uint64(stream)<<16|uint64(w)))
				for {
					select {
					case <-done:
						return
					default:
					}
					sh := pickShape(shapes, totalWeight, rng)
					fire(client, addr, sh, baseSeed+int64(rng.IntN(sh.Seeds)), col)
				}
			}(w)
		}
		wg.Wait()
		return col.reportStep(0, concurrency, time.Since(start), shapes)
	}

	// Open loop: fixed arrival schedule, bounded in-flight.
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	sem := make(chan struct{}, maxInflight)
	rng := rand.New(rand.NewPCG(uint64(baseSeed), uint64(stream)<<16))
	var wg sync.WaitGroup
	var saturated atomic.Int64
loop:
	for {
		select {
		case <-stop:
			break loop
		case <-tick.C:
			sh := pickShape(shapes, totalWeight, rng)
			seed := baseSeed + int64(rng.IntN(sh.Seeds))
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() { <-sem; wg.Done() }()
					fire(client, addr, sh, seed, col)
				}()
			default:
				saturated.Add(1)
			}
		}
	}
	wg.Wait()
	col.mu.Lock()
	col.saturated = saturated.Load()
	col.mu.Unlock()
	return col.reportStep(qps, maxInflight, time.Since(start), shapes)
}

func run() error {
	var mixes mixFlag
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "dftp-serve base URL")
		duration    = flag.Duration("duration", 10*time.Second, "run length per load step")
		concurrency = flag.Int("concurrency", 8, "closed-loop worker count (ignored when -qps > 0)")
		qps         = flag.Float64("qps", 0, "open-loop arrival rate; 0 = closed loop")
		qpsCurve    = flag.String("qps-curve", "", "comma-separated open-loop steps (e.g. 50,100,200); overrides -qps")
		maxInflight = flag.Int("max-inflight", 256, "open-loop in-flight bound; arrivals past it count as saturated")
		seed        = flag.Int64("seed", 1, "base seed for shape/seed draws")
		reportPath  = flag.String("report", "", "write the JSON report here (default stdout)")
		label       = flag.String("label", "", "label recorded in the report")
		note        = flag.String("note", "", "environment note recorded in the report")
	)
	flag.Var(&mixes, "mix", "one traffic shape as key=value pairs (repeatable; see package doc)")
	flag.Parse()

	specs := []string(mixes)
	if len(specs) == 0 {
		// Default workload: a cache-friendly solve mix, a colder solve mix
		// on a second family/metric, and a light portfolio stream.
		specs = []string{
			"name=hot-solve,weight=6,algorithm=agrid,family=walk,n=32,param=0.9,seeds=10",
			"name=cold-solve,weight=3,algorithm=awave,family=disk,n=32,param=1.0,metric=l1,seeds=200",
			"name=race,weight=1,endpoint=portfolio,algorithms=agrid+awave,family=walk,n=32,param=0.9,seeds=5",
		}
	}
	shapes := make([]shape, len(specs))
	totalWeight := 0
	for i, spec := range specs {
		sh, err := parseShape(spec, i)
		if err != nil {
			return err
		}
		shapes[i] = sh
		totalWeight += sh.Weight
	}

	var steps []float64
	if *qpsCurve != "" {
		for _, part := range strings.Split(*qpsCurve, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("-qps-curve entry %q: want a positive number", part)
			}
			steps = append(steps, v)
		}
	} else {
		steps = []float64{*qps} // 0 = one closed-loop step
	}

	client := &http.Client{Timeout: 60 * time.Second}
	// Fail fast if the target isn't there: one healthz round-trip.
	if resp, err := client.Get(*addr + "/healthz"); err != nil {
		return fmt.Errorf("target %s unreachable: %w", *addr, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	rep := report{
		Tool:        "dftp-loadgen",
		Label:       *label,
		Description: "Client-side latency/throughput under a weighted traffic mix against dftp-serve; Server-Timing splits client latency into server stages vs network.",
		Environment: environment{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0), Note: *note},
		Target:      *addr,
		Mixes:       shapes,
	}
	for i, stepQPS := range steps {
		mode := "closed"
		if stepQPS > 0 {
			mode = fmt.Sprintf("open @ %g qps", stepQPS)
		}
		fmt.Fprintf(os.Stderr, "dftp-loadgen: step %s for %s (%d mixes)\n", mode, *duration, len(shapes))
		before, okBefore := scrapeMem(client, *addr)
		sr := runStep(*addr, shapes, totalWeight, stepQPS, *concurrency, *maxInflight, *duration, *seed, int64(i), client)
		if after, okAfter := scrapeMem(client, *addr); okBefore && okAfter {
			mr := &memReport{
				GCCycles:       after.gcCycles - before.gcCycles,
				AllocBytes:     after.allocTotal - before.allocTotal,
				HeapStartBytes: before.heapAlloc,
				HeapEndBytes:   after.heapAlloc,
			}
			if sr.Requests > 0 {
				mr.AllocBytesPerReq = float64(mr.AllocBytes) / float64(sr.Requests)
			}
			sr.ServerMemory = mr
		}
		sort.Slice(sr.PerMix, func(i, j int) bool { return sr.PerMix[i].Name < sr.PerMix[j].Name })
		rep.Steps = append(rep.Steps, sr)
		fmt.Fprintf(os.Stderr, "dftp-loadgen:   %d reqs, %.1f qps, hit %.2f shed %.2f, client p50/p95/p99 = %.2f/%.2f/%.2f ms\n",
			sr.Requests, sr.AchievedQPS, sr.HitRate, sr.ShedRate,
			sr.ClientLatency.P50Ms, sr.ClientLatency.P95Ms, sr.ClientLatency.P99Ms)
		if sr.ServerMemory != nil {
			fmt.Fprintf(os.Stderr, "dftp-loadgen:   server: %d GC cycles, %.1f MB allocated (%.0f B/req), heap %.1f -> %.1f MB\n",
				sr.ServerMemory.GCCycles, float64(sr.ServerMemory.AllocBytes)/1e6, sr.ServerMemory.AllocBytesPerReq,
				float64(sr.ServerMemory.HeapStartBytes)/1e6, float64(sr.ServerMemory.HeapEndBytes)/1e6)
		}
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if *reportPath == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(*reportPath, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dftp-loadgen: report written to %s\n", *reportPath)
	return nil
}
