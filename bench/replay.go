package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"freezetag/internal/arena"
	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/service"
	"freezetag/internal/sim"
	"freezetag/internal/spatial"
	"freezetag/internal/wakeup"
)

// span is one call into a layer, timed from the benchmark's side.
type span struct {
	name   string
	parent int // index into the tracer's spans; -1 for a request root
	tid    int // 1 for the request's own thread, 2+i for portfolio racer i
	req    int
	start  time.Duration // since the tracer's origin
	dur    time.Duration
	allocs int64 // heap allocations during the call; -1 when not measured
	work   int64 // units of work done, for per-unit metrics
}

// tracer records spans around the benchmark's calls into each layer: wall
// time and runtime.MemStats.Mallocs deltas. A disabled tracer records
// nothing, which makes the same replay the overhead baseline.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	ms    runtime.MemStats
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	// Append before reading the counters, so growing the span list is not
	// charged to the call.
	t.spans = append(t.spans, span{name: name, parent: parent, tid: 1, req: req})
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[len(t.spans)-1]
	sp.allocs = int64(t.ms.Mallocs)
	sp.start = time.Since(t.t0)
	return len(t.spans) - 1
}

func (t *tracer) end(id int, work int64) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	runtime.ReadMemStats(&t.ms)
	sp := &t.spans[id]
	sp.dur = now - sp.start
	sp.allocs = int64(t.ms.Mallocs) - sp.allocs
	sp.work = work
}

// add records a span measured elsewhere (server stages, racers).
func (t *tracer) add(sp span) {
	if t.on {
		sp.allocs = -1
		t.spans = append(t.spans, sp)
	}
}

// layerCounts accumulates the counted work of the library replay.
type layerCounts struct {
	solves, steps, looks, moves, repairs int64
	misses, incomplete                   int64
	racerWall, winnerWall                time.Duration
	cancelLags                           []float64 // µs
}

// replayer re-runs measured requests one at a time: the served round trip,
// the same request through the library calls the service makes for it, and
// the substrate layers on the request's own instance.
type replayer struct {
	tr  *tracer
	srv *server
	ar  *arena.Arena
	buf bytes.Buffer
	n   layerCounts

	mu  sync.Mutex // racer observations arrive from racer goroutines
	obs []portfolio.RacerObservation

	dist []float64
	ids  []int
}

// replay re-runs the sample twice, request by request: once without spans
// and once with them, each on its own fresh server and arena, so both passes
// see the same cache states and the same warmth. It returns the traced
// replayer and the ratio of traced to untraced wall time.
func replay(p *plan, sample []int32) (*replayer, float64, error) {
	plain, traced := newReplayer(false), newReplayer(true)
	defer plain.close()
	defer traced.close()
	var wall [2]time.Duration
	for k, idx := range sample {
		r := &p.reqs[idx]
		for i, rp := range []*replayer{plain, traced} {
			t0 := time.Now()
			err := rp.one(k, r)
			wall[i] += time.Since(t0)
			if err != nil {
				return nil, 0, fmt.Errorf("traced request %d (%s): %w", k, r.desc, err)
			}
		}
	}
	return traced, wall[1].Seconds() / wall[0].Seconds(), nil
}

func newReplayer(traced bool) *replayer {
	return &replayer{tr: &tracer{on: traced, t0: time.Now()}, srv: startServer(1), ar: arena.New("bench-replay")}
}

func (rp *replayer) close() {
	rp.srv.close()
	rp.ar.Close()
}

func (rp *replayer) one(k int, r *request) error {
	tr := rp.tr
	root := tr.begin("request", -1, k)
	sp := tr.begin("service.roundtrip", root, k)
	status, timing, err := rp.srv.post(r, &rp.buf)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, rp.buf.Bytes())
	}
	rp.serverStages(sp, k, timing)

	lib := tr.begin("library", root, k)
	body, m, inst, err := rp.library(lib, k, r)
	tr.end(lib, 1)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, rp.buf.Bytes()) {
		return fmt.Errorf("library replay marshals other bytes than the server sent:\n library %s\n served  %s", body, rp.buf.Bytes())
	}

	sub := tr.begin("substrate", root, k)
	err = rp.substrate(sub, k, m, inst)
	tr.end(sub, 1)
	tr.end(root, 1)
	return err
}

// serverStages adds the server-reported stages as children of the round
// trip, laid end to end from its start.
func (rp *replayer) serverStages(parent, k int, h string) {
	st, ok := parseTiming(h)
	if !ok || parent < 0 {
		return
	}
	at := rp.tr.spans[parent].start
	for _, s := range []struct {
		name string
		ms   float64
	}{{"resolve", st.resolve}, {"queue", st.queue}, {"sim", st.sim}, {"marshal", st.marshal}} {
		if s.ms < 0 {
			continue
		}
		d := time.Duration(s.ms * float64(time.Millisecond))
		rp.tr.add(span{name: "service.roundtrip." + s.name, parent: parent, tid: 1, req: k, start: at, dur: d})
		at += d
	}
}

// library replays r through the calls the service makes to serve it and
// returns the marshalled response with the request's metric and instance.
func (rp *replayer) library(parent, k int, r *request) ([]byte, geom.Metric, *instance.Instance, error) {
	tr := rp.tr
	isRace := r.path == portfolioPath
	var sreq service.SolveRequest
	var preq service.PortfolioRequest
	var err error
	sp := tr.begin("service.decode", parent, k)
	if isRace {
		err = json.Unmarshal(r.body, &preq)
	} else {
		err = json.Unmarshal(r.body, &sreq)
	}
	tr.end(sp, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	if isRace {
		// The instance half of a race request, read through the same fields.
		sreq = service.SolveRequest{Metric: preq.Metric, Instance: preq.Instance, Family: preq.Family, N: preq.N,
			Param: preq.Param, Seed: preq.Seed, Budget: preq.Budget, Faults: preq.Faults}
	}
	w := &sreq
	m, err := geom.ParseMetric(w.Metric)
	if err != nil {
		return nil, nil, nil, err
	}
	inst := w.Instance
	if inst == nil {
		sp = tr.begin("instance.family", parent, k)
		inst, err = instance.Family(w.Family, w.N, w.Param, w.Seed)
		tr.end(sp, 1)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	sp = tr.begin("diskgraph.params", parent, k)
	tup := dftp.TupleForIn(m, inst)
	tr.end(sp, int64(inst.N()))
	budget := max(w.Budget, 0)

	var out any
	if isRace {
		pf, err := portfolioOf(preq)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = tr.begin("instance.hash", parent, k)
		hash := instance.HashRequestFaulted(m, pf.Name(), inst, tup.Ell, tup.Rho, tup.N, budget, w.Faults.Canon())
		tr.end(sp, int64(inst.N()))
		sp = tr.begin("portfolio.race", parent, k)
		res, err := portfolio.Race(pf, inst, tup, budget, portfolio.Options{Workers: runtime.GOMAXPROCS(0), Trace: true,
			Metric: m, Observe: rp.observe, Faults: w.Faults})
		tr.end(sp, int64(len(pf.Algorithms)))
		if err != nil {
			return nil, nil, nil, err
		}
		rp.racers(sp, k, res.Winner)
		rp.count(res.Res, res.Rep, w.Faults, inst)
		pr := service.NewPortfolioResponse(hash, pf, m, inst, tup, budget, res)
		pr.Faults = service.NewFaultsEcho(w.Faults, res.Res, inst.N())
		out = pr
	} else {
		alg, err := service.AlgorithmByName(sreq.Algorithm)
		if err != nil {
			return nil, nil, nil, err
		}
		sp = tr.begin("instance.hash", parent, k)
		hash := instance.HashRequestFaulted(m, alg.Name(), inst, tup.Ell, tup.Rho, tup.N, budget, w.Faults.Canon())
		tr.end(sp, int64(inst.N()))
		// The result lives in the reused arena until the next solve, so it
		// is marshalled before this function returns.
		sp = tr.begin("dftp."+algKey(alg.Name())+".solve", parent, k)
		res, rep, err := dftp.SolveFaulted(context.Background(), rp.ar, m, alg, inst, tup, budget, w.Faults, nil)
		tr.end(sp, res.Steps)
		if err != nil {
			return nil, nil, nil, err
		}
		rp.count(res, rep, w.Faults, inst)
		sr := service.NewSolveResponse(hash, alg, m, inst, tup, budget, res, rep)
		sr.Faults = service.NewFaultsEcho(w.Faults, res, inst.N())
		out = sr
	}
	sp = tr.begin("service.marshal", parent, k)
	body, err := json.Marshal(out)
	tr.end(sp, 1)
	return body, m, inst, err
}

// portfolioOf builds the race a portfolio request names, as the service does.
func portfolioOf(q service.PortfolioRequest) (portfolio.Portfolio, error) {
	algs := make([]dftp.Algorithm, len(q.Algorithms))
	for i, name := range q.Algorithms {
		alg, err := service.AlgorithmByName(name)
		if err != nil {
			return portfolio.Portfolio{}, err
		}
		algs[i] = alg
	}
	obj, err := portfolio.ParseObjective(q.Objective)
	if err != nil {
		return portfolio.Portfolio{}, err
	}
	return portfolio.Portfolio{Algorithms: algs, Objective: obj, Seed: q.Seed}, nil
}

// algKey is an algorithm's metric-name spelling: "ASeparatorAuto" →
// "aseparator-auto".
func algKey(name string) string {
	return strings.ToLower(strings.Replace(name, "Auto", "-Auto", 1))
}

func (rp *replayer) observe(ob portfolio.RacerObservation) {
	rp.mu.Lock()
	rp.obs = append(rp.obs, ob)
	rp.mu.Unlock()
}

// racers turns the finished race's observations into racer spans and the
// useful-work and cancellation counts.
func (rp *replayer) racers(parent, k, winner int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for _, ob := range rp.obs {
		rp.n.racerWall += ob.Wall
		if ob.Index == winner {
			rp.n.winnerWall += ob.Wall
		}
		if ob.CancelLatency > 0 {
			rp.n.cancelLags = append(rp.n.cancelLags, float64(ob.CancelLatency)/float64(time.Microsecond))
		}
		if ob.Wall > 0 {
			rp.tr.add(span{name: "portfolio.racer." + algKey(ob.Algorithm), parent: parent, tid: 2 + ob.Index, req: k,
				start: ob.Start.Sub(rp.tr.t0), dur: ob.Wall})
		}
	}
	rp.obs = rp.obs[:0]
}

func (rp *replayer) count(res sim.Result, rep *dftp.Report, faults *dftp.Faults, inst *instance.Instance) {
	n := &rp.n
	n.solves++
	n.steps += res.Steps
	n.looks += res.Looks
	n.moves += res.Moves
	n.repairs += res.Faults.Repairs
	if faults != nil {
		// Crashed robots miss their slots by design; completion is the
		// guarantee repair gives.
		if res.Awakened < inst.N() {
			n.incomplete++
		}
		return
	}
	n.misses += int64(len(rep.Misses))
	if !res.AllAwake {
		n.incomplete++
	}
}

// substrate runs one rung per substrate layer on the request's instance.
func (rp *replayer) substrate(parent, k int, m geom.Metric, inst *instance.Instance) error {
	tr := rp.tr
	pts := inst.Points
	n := len(pts)

	rp.dist = slices.Grow(rp.dist[:0], n)[:n]
	sp := tr.begin("geom.distbatch", parent, k)
	geom.DistBatch(m, inst.Source, pts, rp.dist)
	for _, p := range pts {
		geom.DistBatch(m, p, pts, rp.dist)
	}
	tr.end(sp, int64(n+1)*int64(n))

	g := spatial.NewGridIn(m, 1)
	for i, p := range pts {
		g.Insert(i+1, p)
	}
	sp = tr.begin("spatial.within", parent, k)
	for _, p := range pts {
		rp.ids = g.Within(rp.ids[:0], p, 1)
	}
	tr.end(sp, int64(n))

	targets := make([]wakeup.Target, n)
	for i, p := range pts {
		targets[i] = wakeup.Target{ID: i + 1, Pos: p}
		if inst.Heterogeneous() {
			targets[i].Speed, targets[i].Capacity = inst.Profiles[i].Speed, inst.Profiles[i].Capacity
		}
	}
	sp = tr.begin("wakeup.build_tree", parent, k)
	wakeup.BuildTreeIn(m, inst.Source, targets)
	tr.end(sp, int64(n))

	e := sim.NewEngine(sim.Config{Source: inst.Source, Sleepers: pts, Metric: m})
	defer e.Close()
	var moveErr error
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		for _, q := range pts {
			if err := p.MoveTo(q); err != nil && moveErr == nil {
				moveErr = err
			}
			p.Look()
		}
	})
	sp = tr.begin("sim.move_look", parent, k)
	_, err := e.Run()
	tr.end(sp, int64(n))
	return errors.Join(err, moveErr)
}

// selfTimes is each span's duration minus the part of it its children
// cover (children on other threads may overlap each other).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for i, s := range spans {
		lo, hi := s.start, s.start+s.dur
		ivs = ivs[:0]
		for _, c := range kids[i] {
			a, b := max(spans[c].start, lo), min(spans[c].start+spans[c].dur, hi)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		covered, end := time.Duration(0), lo
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		self[i] = s.dur - covered
	}
	return self
}

// spanSummary aggregates every span of one name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	Allocs  int64   `json:"allocs"`
}

func summarize(spans []span, self []time.Duration) map[string]spanSummary {
	out := map[string]spanSummary{}
	for i, s := range spans {
		sum := out[s.name]
		sum.Count++
		sum.TotalMs += float64(s.dur) / float64(time.Millisecond)
		sum.SelfMs += float64(self[i]) / float64(time.Millisecond)
		sum.Allocs += max(s.allocs, 0)
		out[s.name] = sum
	}
	return out
}

// replayLayers computes the per-layer metrics of the traced replay.
func replayLayers(rp *replayer, overhead float64) map[string]metric {
	byName := map[string][]span{}
	for _, s := range rp.tr.spans {
		byName[s.name] = append(byName[s.name], s)
	}
	med := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.dur)/float64(unit))
		}
		return quantile(xs, 0.5)
	}
	medAllocs := func(name string) float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, float64(s.allocs))
		}
		return quantile(xs, 0.5)
	}
	// nsPer is the summed duration of the named spans over their summed work.
	nsPer := func(names ...string) float64 {
		var d time.Duration
		var w int64
		for _, name := range names {
			for _, s := range byName[name] {
				d += s.dur
				w += s.work
			}
		}
		return ratio(int64(d), w)
	}
	n := rp.n
	solveNames := make([]string, 0, 4)
	out := map[string]metric{
		"service.decode_us":          {med("service.decode", time.Microsecond), "us"},
		"instance.family_us":         {med("instance.family", time.Microsecond), "us"},
		"diskgraph.params_us":        {med("diskgraph.params", time.Microsecond), "us"},
		"diskgraph.params_allocs":    {medAllocs("diskgraph.params"), "count"},
		"instance.hash_us":           {med("instance.hash", time.Microsecond), "us"},
		"service.marshal_us":         {med("service.marshal", time.Microsecond), "us"},
		"geom.dist_ns":               {nsPer("geom.distbatch"), "ns"},
		"spatial.within_ns":          {nsPer("spatial.within"), "ns"},
		"wakeup.build_tree_us":       {med("wakeup.build_tree", time.Microsecond), "us"},
		"sim.move_look_us":           {nsPer("sim.move_look") / 1e3, "us"},
		"portfolio.race_ms":          {med("portfolio.race", time.Millisecond), "ms"},
		"portfolio.race_allocs":      {medAllocs("portfolio.race"), "count"},
		"portfolio.useful_ratio":     {ratio(int64(n.winnerWall), int64(n.racerWall)), "ratio"},
		"portfolio.cancel_lag_us":    {quantile(n.cancelLags, 0.5), "us"},
		"sim.steps_per_solve":        {ratio(n.steps, n.solves), "count"},
		"sim.looks_per_solve":        {ratio(n.looks, n.solves), "count"},
		"sim.moves_per_solve":        {ratio(n.moves, n.solves), "count"},
		"wakeup.repairs_per_solve":   {ratio(n.repairs, n.solves), "count"},
		"dftp.misses":                {float64(n.misses), "count"},
		"dftp.incomplete_ratio":      {ratio(n.incomplete, n.solves), "ratio"},
		"bench.trace_overhead_ratio": {overhead, "ratio"},
	}
	for _, alg := range []string{"agrid", "aseparator", "aseparator-auto", "awave"} {
		name := "dftp." + alg + ".solve"
		solveNames = append(solveNames, name)
		out["dftp."+alg+".solve_ms"] = metric{med(name, time.Millisecond), "ms"}
		out["dftp."+alg+".solve_allocs"] = metric{medAllocs(name), "count"}
	}
	out["sim.ns_per_step"] = metric{nsPer(solveNames...), "ns"}
	return out
}

// traceEvent is one Chrome trace-event record (the JSON format Perfetto
// and chrome://tracing load).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the spans as a Chrome trace-event JSON file.
func writeTrace(path, workload string, spans []span, self []time.Duration) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench " + workload}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "requests"}},
	}
	tids := map[int]bool{}
	for i, s := range spans {
		if s.tid > 1 && !tids[s.tid] {
			tids[s.tid] = true
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid,
				Args: map[string]any{"name": fmt.Sprintf("racer %d", s.tid-2)}})
		}
		layer, _, _ := strings.Cut(s.name, ".")
		args := map[string]any{"request": s.req, "self_us": us(self[i])}
		if s.allocs >= 0 {
			args["allocs"] = s.allocs
		}
		evs = append(evs, traceEvent{Name: s.name, Cat: layer, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: s.tid, Args: args})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
