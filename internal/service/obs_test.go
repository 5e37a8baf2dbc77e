package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/obs"
	"freezetag/internal/portfolio"
	"freezetag/internal/sim"
)

// getBody GETs a path from the test server and returns the response and body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerTimingHitAndMiss: every solve response carries a Server-Timing
// header; a cold solve reports the full stage breakdown, a warm one the
// cache verdict — and neither leaks timing into the body.
func TestServerTimingHitAndMiss(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	r1, b1 := postSolve(t, srv, walkBody)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", r1.StatusCode, b1)
	}
	st1 := r1.Header.Get("Server-Timing")
	if st1 == "" {
		t.Fatal("cold solve has no Server-Timing header")
	}
	if !strings.HasPrefix(st1, "cache;desc=miss") {
		t.Errorf("cold Server-Timing = %q, want cache;desc=miss prefix", st1)
	}
	for _, stage := range []string{"resolve;dur=", "queue;dur=", "sim;dur=", "marshal;dur=", "total;dur="} {
		if !strings.Contains(st1, stage) {
			t.Errorf("cold Server-Timing %q missing stage %q", st1, stage)
		}
	}

	r2, b2 := postSolve(t, srv, walkBody)
	st2 := r2.Header.Get("Server-Timing")
	if st2 == "" {
		t.Fatal("warm solve has no Server-Timing header")
	}
	if !strings.HasPrefix(st2, "cache;desc=hit") {
		t.Errorf("warm Server-Timing = %q, want cache;desc=hit prefix", st2)
	}
	for _, stage := range []string{"resolve;dur=", "total;dur="} {
		if !strings.Contains(st2, stage) {
			t.Errorf("warm Server-Timing %q missing stage %q", st2, stage)
		}
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("instrumented bodies differ between cold and warm serves")
	}
	// The timing header is per-request, not cached with the body.
	if st1 == st2 {
		t.Errorf("cold and warm Server-Timing identical (%q) — header cached with the body?", st1)
	}
}

// metricValue extracts one sample value from a Prometheus exposition by its
// exact series spelling (name plus label set as written by the exposition).
func metricValue(t *testing.T, exposition, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("series %q not found in exposition", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q value %q: %v", series, m[1], err)
	}
	return v
}

// TestMetricszExposition drives deterministic traffic and asserts the
// scrape moves: outcome counters, per-shape counters, stage histograms,
// and the sim probe totals all reflect the two solves and one race.
func TestMetricszExposition(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	postSolve(t, srv, walkBody) // miss
	postSolve(t, srv, walkBody) // hit
	resp, body := getBody(t, srv.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metricsz Content-Type = %q", ct)
	}
	exp := string(body)

	if v := metricValue(t, exp, "dftp_cache_hits_total"); v != 1 {
		t.Errorf("dftp_cache_hits_total = %v, want 1", v)
	}
	if v := metricValue(t, exp, "dftp_cache_misses_total"); v != 1 {
		t.Errorf("dftp_cache_misses_total = %v, want 1", v)
	}
	if v := metricValue(t, exp, `dftp_requests_total{endpoint="solve",outcome="hit"}`); v != 1 {
		t.Errorf("requests{solve,hit} = %v, want 1", v)
	}
	if v := metricValue(t, exp, `dftp_requests_total{endpoint="solve",outcome="miss"}`); v != 1 {
		t.Errorf("requests{solve,miss} = %v, want 1", v)
	}
	if v := metricValue(t, exp, `dftp_requests_by_shape_total{endpoint="solve",algorithm="AGrid",metric="l2"}`); v != 2 {
		t.Errorf("requests_by_shape{AGrid} = %v, want 2", v)
	}
	// Both requests pass through the request-duration histogram; the solve
	// stage histograms see only the cold one.
	if v := metricValue(t, exp, `dftp_request_duration_seconds_count{endpoint="solve"}`); v != 2 {
		t.Errorf("request_duration count = %v, want 2", v)
	}
	if v := metricValue(t, exp, `dftp_stage_duration_seconds_count{stage="sim"}`); v != 1 {
		t.Errorf("stage sim count = %v, want 1", v)
	}
	for _, probe := range []string{"dftp_sim_steps_total", "dftp_sim_looks_total", "dftp_sim_moves_total", "dftp_sim_wakes_total"} {
		if v := metricValue(t, exp, probe); v <= 0 {
			t.Errorf("%s = %v, want > 0", probe, v)
		}
	}
	if v := metricValue(t, exp, "dftp_workers"); v != 2 {
		t.Errorf("dftp_workers = %v, want 2", v)
	}

	// A race moves the portfolio-side series, including racer telemetry.
	raceBody := `{"algorithms":["agrid","awave"],"family":"walk","n":16,"param":0.9,"seed":1}`
	resp2, data := func() (*http.Response, []byte) {
		r, err := http.Post(srv.URL+"/v1/portfolio", "application/json", strings.NewReader(raceBody))
		if err != nil {
			t.Fatal(err)
		}
		d, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, d
	}()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("portfolio: %d %s", resp2.StatusCode, data)
	}
	_, body = getBody(t, srv.URL+"/metricsz")
	exp = string(body)
	if v := metricValue(t, exp, "dftp_races_total"); v != 1 {
		t.Errorf("dftp_races_total = %v, want 1", v)
	}
	if v := metricValue(t, exp, `dftp_requests_total{endpoint="portfolio",outcome="miss"}`); v != 1 {
		t.Errorf("requests{portfolio,miss} = %v, want 1", v)
	}
	if v := metricValue(t, exp, "dftp_racer_sim_seconds_count"); v < 2 {
		t.Errorf("racer_sim count = %v, want ≥ 2 (both entrants ran)", v)
	}
	// The race threads the portfolio endpoint's own handles: its duration
	// histogram and shape series, next to the shared stage histograms that
	// now hold the cold solve and the race.
	if v := metricValue(t, exp, `dftp_request_duration_seconds_count{endpoint="portfolio"}`); v != 1 {
		t.Errorf("request_duration{portfolio} count = %v, want 1", v)
	}
	if v := metricValue(t, exp, `dftp_requests_by_shape_total{endpoint="portfolio",algorithm="portfolio[AGrid,AWave;obj=min-makespan;seed=1]",metric="l2"}`); v != 1 {
		t.Errorf("requests_by_shape{portfolio} = %v, want 1", v)
	}
	for _, stage := range []string{"sim", "marshal"} {
		if v := metricValue(t, exp, `dftp_stage_duration_seconds_count{stage="`+stage+`"}`); v != 2 {
			t.Errorf("stage %s count = %v, want 2 (one solve, one race)", stage, v)
		}
	}
}

// TestCorrectnessCounters: incomplete runs and schedule misses reach
// /metricsz, labelled with the run's algorithm (a race's winner), counted
// once per completed run and never again on a cache hit. Of the PR 5 golden
// requests only the budgeted ℓ1 ASeparator line run fails: it ends with 2
// of 16 robots awake and reports one deadline miss.
func TestCorrectnessCounters(t *testing.T) {
	data, err := os.ReadFile("testdata/response_golden_pr5.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs []responseFixture
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServer(t, Config{Workers: 2})
	post := func(f responseFixture) {
		t.Helper()
		path, req := "/v1/solve", f.Solve
		if req == nil {
			path, req = "/v1/portfolio", f.Race
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(req)))
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", f.Desc, resp.StatusCode, body)
		}
	}
	check := func(when string) {
		t.Helper()
		_, body := getBody(t, srv.URL+"/metricsz")
		for _, name := range []string{"dftp_incomplete_runs_total", "dftp_schedule_misses_total"} {
			for _, alg := range []string{"AGrid", "ASeparator", "ASeparatorAuto", "AWave"} {
				want := 0.0
				if alg == "ASeparator" {
					want = 1
				}
				if v := metricValue(t, string(body), name+`{algorithm="`+alg+`"}`); v != want {
					t.Errorf("%s: %s{%s} = %v, want %v", when, name, alg, v, want)
				}
			}
		}
	}
	var failing responseFixture
	for _, f := range fs {
		post(f)
		if f.Desc == "line aseparator l1 budget" {
			failing = f
		}
	}
	if failing.Solve == nil {
		t.Fatal("golden set lost the failing ASeparator request")
	}
	check("after the golden requests")
	post(failing)
	check("after the cache-hit repeat")
}

// Past maxShapeSeries, new shapes share one algorithm="other",
// metric="other" series per endpoint. A portfolio's algorithm label embeds
// its seed, so a stream of distinct seeds must not grow the registry — and
// no request may go uncounted.
func TestShapeSeriesBounded(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	const n = 1000
	for i := 0; i < n; i++ {
		s.countShape("portfolio", "portfolio[AGrid;obj=min-makespan;seed="+strconv.Itoa(i)+"]", "lp:"+strconv.Itoa(i+2))
	}
	if got := len(s.shapeCounters); got > maxShapeSeries+1 {
		t.Fatalf("%d shape series after %d distinct shapes, want at most %d", got, n, maxShapeSeries+1)
	}
	var total int64
	for _, c := range s.shapeCounters {
		total += c.Load()
	}
	if total != n {
		t.Fatalf("shape series sum to %d, want %d", total, n)
	}
	var b bytes.Buffer
	if err := s.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, b.String(), `dftp_requests_by_shape_total{endpoint="portfolio",algorithm="other",metric="other"}`); v != n-maxShapeSeries {
		t.Errorf("overflow series = %v, want %d", v, n-maxShapeSeries)
	}
}

// TestStatszFreshServerNoNaN: a brand-new server's /statsz must be valid
// JSON with every derived ratio exactly 0 — an unguarded 0/0 would make
// json.Marshal fail and turn the endpoint into a 500.
func TestStatszFreshServerNoNaN(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})

	resp, body := getBody(t, srv.URL+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh statsz: %d %s", resp.StatusCode, body)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("fresh statsz is not valid JSON: %v\n%s", err, body)
	}
	for _, ratio := range []string{"hitRate", "memoHitRate", "shedRate"} {
		v, ok := fields[ratio]
		if !ok {
			t.Errorf("statsz missing %q", ratio)
			continue
		}
		if f, ok := v.(float64); !ok || f != 0 {
			t.Errorf("fresh %s = %v, want exactly 0", ratio, v)
		}
	}

	// Same invariant on the Go API (the JSON route can't even represent NaN,
	// so check the struct too).
	st := s.Stats()
	for name, v := range map[string]float64{"HitRate": st.HitRate, "MemoHitRate": st.MemoHitRate, "ShedRate": st.ShedRate} {
		if math.IsNaN(v) || v != 0 {
			t.Errorf("fresh Stats().%s = %v, want 0", name, v)
		}
	}
}

// TestBuildz: the endpoint reports the toolchain and a sane uptime even in
// test binaries (which carry no VCS stamps).
func TestBuildz(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, body := getBody(t, srv.URL+"/buildz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buildz: %d %s", resp.StatusCode, body)
	}
	var info BuildInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("buildz JSON: %v\n%s", err, body)
	}
	if !strings.HasPrefix(info.GoVersion, "go") {
		t.Errorf("goVersion = %q, want a go toolchain version", info.GoVersion)
	}
	if info.UptimeSeconds < 0 {
		t.Errorf("uptimeSeconds = %v, want ≥ 0", info.UptimeSeconds)
	}
}

// TestStatszMatchesMetricsz: /statsz is a read-through view of the same
// registry /metricsz renders, so after arbitrary traffic the two must agree
// on every shared counter.
func TestStatszMatchesMetricsz(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	postSolve(t, srv, walkBody)
	postSolve(t, srv, walkBody)
	postSolve(t, srv, `{"algorithm":"awave","family":"walk","n":16,"param":0.9,"seed":3}`)

	_, statsBody := getBody(t, srv.URL+"/statsz")
	var st Stats
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	_, metricsBody := getBody(t, srv.URL+"/metricsz")
	exp := string(metricsBody)
	for series, want := range map[string]int64{
		"dftp_cache_hits_total":   st.Hits,
		"dftp_cache_misses_total": st.Misses,
		"dftp_solves_total":       st.Solves,
		"dftp_memo_hits_total":    st.MemoHits,
	} {
		if got := metricValue(t, exp, series); int64(got) != want {
			t.Errorf("%s = %v but statsz says %d", series, got, want)
		}
	}
}

// A request that fails because a simulated process panicked logs the
// error's one line and, beside it, the panicking frame's stack.
func TestRequestLogKeepsPanicStack(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	defer s.Close()
	perr := &sim.PanicError{Robot: 3, Value: "boom", Stack: []byte("goroutine 7 [running]:\nexplode()")}
	s.logRequest("solve", Solved{}, TraceOpt{}, fmt.Errorf("solve: %w", perr))
	var rec struct{ Error, Stack string }
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log record %q: %v", buf.String(), err)
	}
	if rec.Error != "solve: sim: process panicked on robot 3: boom" || rec.Stack != string(perr.Stack) {
		t.Errorf("log record = %+v, want the one-line error and the stack", rec)
	}
}

// panicAlg is an Algorithm whose source process panics at once, which no
// served algorithm can be made to do.
type panicAlg struct{}

func (panicAlg) Name() string { return "panic" }

func (panicAlg) Install(e *sim.Engine, _ dftp.Tuple) *dftp.Report {
	e.Spawn(sim.SourceID, func(*sim.Proc) { panic("panicAlg: source fault") })
	return &dftp.Report{}
}

// dftp_panics_total counts every run a simulated process's panic ends: a
// solve, which is then a 500, and a racer, which then reports "error"
// while the race beside it is won by AGrid. Both are served by the real
// handler and pipeline, with panicAlg in place of the algorithm the
// request names.
func TestPanicsCounted(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	mux := http.NewServeMux()
	mux.Handle("POST /solve", handleServe(s, func(s *Service, topt TraceOpt, req SolveRequest) (Solved, error) {
		sp := obs.StartSpan()
		return serve(s, s.solveEP, topt, &sp, single{panicAlg{}}, nil, &req)
	}))
	mux.Handle("POST /race", handleServe(s, func(s *Service, topt TraceOpt, req PortfolioRequest) (Solved, error) {
		sp := obs.StartSpan()
		pf := portfolio.Portfolio{Algorithms: []dftp.Algorithm{dftp.AGrid{}, panicAlg{}}, Objective: portfolio.MinMakespan{}}
		sreq := req.solveRequest()
		return serve(s, s.portfolioEP, topt, &sp, race{pf}, nil, &sreq)
	}))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	panics := func() float64 {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
		return metricValue(t, rec.Body.String(), "dftp_panics_total")
	}
	post := func(path string) (int, []byte) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"family":"walk","n":8,"param":0.9,"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}
	if v := panics(); v != 0 {
		t.Fatalf("dftp_panics_total = %v before any request", v)
	}
	if code, body := post("/solve"); code != http.StatusInternalServerError || !strings.Contains(string(body), "panicAlg: source fault") {
		t.Fatalf("solve: %d %s, want a 500 naming the panic", code, body)
	}
	if v := panics(); v != 1 {
		t.Fatalf("dftp_panics_total = %v after a panicked solve, want 1", v)
	}
	code, body := post("/race")
	if code != http.StatusOK {
		t.Fatalf("race: %d %s", code, body)
	}
	var out PortfolioResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Racers) != 2 || out.Winner != "AGrid" || out.Racers[1].Status != "error" ||
		!strings.Contains(out.Racers[1].Error, "panicAlg: source fault") {
		t.Fatalf("race winner %q, racers %+v: want AGrid to win beside an error racer", out.Winner, out.Racers)
	}
	if v := panics(); v != 2 {
		t.Fatalf("dftp_panics_total = %v after a race with a panicked racer, want 2", v)
	}
}

// TestRequestLogging: with a Logger configured every request emits one
// structured record carrying the endpoint, outcome, hash, and stage
// durations.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, srv := newTestServer(t, Config{Workers: 1, Logger: logger})

	postSolve(t, srv, walkBody)
	postSolve(t, srv, walkBody)
	postSolve(t, srv, `{"algorithm":"nope","family":"walk","n":8}`)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d log records, want 3:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Level    string `json:"level"`
		Msg      string `json:"msg"`
		Endpoint string `json:"endpoint"`
		Outcome  string `json:"outcome"`
		Hash     string `json:"hash"`
		Error    string `json:"error"`
	}
	var rs []rec
	for _, ln := range lines {
		var r rec
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("log line %q: %v", ln, err)
		}
		rs = append(rs, r)
	}
	if rs[0].Outcome != OutcomeMiss || rs[0].Hash == "" || rs[0].Endpoint != "solve" {
		t.Errorf("cold record = %+v, want solve/miss with a hash", rs[0])
	}
	if rs[1].Outcome != OutcomeHit {
		t.Errorf("warm record outcome = %q, want hit", rs[1].Outcome)
	}
	if rs[2].Level != "WARN" || rs[2].Outcome != OutcomeError || rs[2].Error == "" {
		t.Errorf("error record = %+v, want WARN error with message", rs[2])
	}
}
