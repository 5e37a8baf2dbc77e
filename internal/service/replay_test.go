package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freezetag/internal/dftp"
	"freezetag/internal/portfolio"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// replayCase is one request whose replayed trace is checked.
type replayCase struct {
	desc, path, body string
}

// replayCases are the golden response fixtures plus faulted, ℓ1, heterogeneous
// and raced requests under every objective family.
func replayCases(t *testing.T) []replayCase {
	t.Helper()
	data, err := os.ReadFile("testdata/response_golden_pr5.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs []responseFixture
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	var cs []replayCase
	for _, f := range fs {
		c := replayCase{f.Desc, "/v1/solve", string(f.Solve)}
		if f.Race != nil {
			c.path, c.body = "/v1/portfolio", string(f.Race)
		}
		cs = append(cs, c)
	}
	return append(cs,
		replayCase{"crash-stop with repair", "/v1/solve", faultedWalkBody},
		replayCase{"wake-drop with repair", "/v1/solve", `{"algorithm":"aseparator","family":"walk","n":32,"param":0.9,"seed":2,` +
			`"faults":{"kind":"wake-drop","rate":0.3,"seed":7,"repair":true}}`},
		replayCase{"l1 aseparator", "/v1/solve", `{"algorithm":"aseparator","metric":"l1","family":"disk","n":64,"param":1.2,"seed":4}`},
		replayCase{"speedband", "/v1/solve", `{"algorithm":"agrid","family":"walk+speedband:0.5","n":32,"param":0.9,"seed":3}`},
		replayCase{"race min-makespan", "/v1/portfolio", `{"algorithms":["aseparator","agrid","awave"],"objective":"min-makespan",` +
			`"family":"walk","n":24,"param":0.9,"seed":6}`},
		replayCase{"race first-under-budget", "/v1/portfolio", `{"algorithms":["agrid","aseparator","awave"],` +
			`"objective":"first-under-budget:makespan=1e9","family":"walk","n":24,"param":0.9,"seed":2}`},
		replayCase{"race under faults", "/v1/portfolio", `{"algorithms":["agrid","aseparator"],"objective":"min-makespan-under-faults:draws=3",` +
			`"family":"disk","n":40,"param":1.2,"seed":5,"faults":{"kind":"crash-stop","rate":0.2,"seed":9,"repair":true}}`},
	)
}

// eagerTrace records c's run by tracing it as it runs: dftp.SolveFaulted on
// a fresh engine for a solve, portfolio.Race with Options{Trace: true} for a
// race. It returns the request hash and the events as NDJSON.
func eagerTrace(t *testing.T, s *Service, c replayCase) (string, []byte) {
	t.Helper()
	var hash string
	var events []sim.Event
	if c.path == "/v1/solve" {
		var req SolveRequest
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		alg, err := AlgorithmByName(req.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMetric(req.Metric)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.resolve(alg.Name(), m, &req)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		if _, _, err := dftp.SolveFaulted(context.Background(), nil, r.metric, alg, r.inst, r.tup, r.budget, r.faults, rec.Record); err != nil {
			t.Fatalf("%s: %v", c.desc, err)
		}
		hash, events = r.hash, rec.Events()
	} else {
		var req PortfolioRequest
		if err := json.Unmarshal([]byte(c.body), &req); err != nil {
			t.Fatal(err)
		}
		pf, err := portfolioFor(req)
		if err != nil {
			t.Fatal(err)
		}
		m, err := parseMetric(req.Metric)
		if err != nil {
			t.Fatal(err)
		}
		sreq := req.solveRequest()
		r, err := s.resolve(pf.Name(), m, &sreq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := portfolio.Race(pf, r.inst, r.tup, r.budget, portfolio.Options{Trace: true, Metric: r.metric, Faults: r.faults})
		if err != nil {
			t.Fatalf("%s: %v", c.desc, err)
		}
		hash, events = r.hash, res.Events
	}
	var buf bytes.Buffer
	if err := trace.WriteEventsNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	return hash, buf.Bytes()
}

func getTrace(t *testing.T, srv *httptest.Server, hash string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/trace/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, readAll(t, resp)
}

// The cache keeps each run's inputs, and GET /v1/trace replays them: the
// replayed stream must equal the eager recording byte for byte. Every request
// is served before any trace is fetched, so each replay runs on a worker
// arena that has since served other request shapes.
func TestTraceReplayEqualsEagerRecording(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	cases := replayCases(t)
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.desc, resp.StatusCode, body)
		}
	}
	for _, c := range cases {
		hash, want := eagerTrace(t, s, c)
		status, got := getTrace(t, srv, hash)
		if status != http.StatusOK || len(want) == 0 {
			t.Fatalf("%s: trace status %d, eager recording %d bytes", c.desc, status, len(want))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed trace (%d bytes) differs from the eager recording (%d bytes)", c.desc, len(got), len(want))
		}
	}
	if got := s.traceReplays.Load(); got != int64(len(cases)) {
		t.Fatalf("dftp_trace_replays_total = %d, want %d", got, len(cases))
	}
}

// GET /v1/trace is admitted like a solve: with the worker held and the queue
// full it answers 429 and runs nothing, it replays once the queue drains, and
// after Close it answers 503.
func TestHTTPTraceQueueFull429(t *testing.T) {
	var hold atomic.Bool
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1, QueueDepth: 1, preSolve: func() {
		if hold.Load() {
			started <- struct{}{}
			<-release
		}
	}})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()
	var once sync.Once
	unblock := func() {
		hold.Store(false)
		once.Do(func() { close(release) })
	}
	defer unblock()

	_, body := postSolve(t, srv, walkBody)
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	hold.Store(true)
	var wg sync.WaitGroup
	solveAsync := func(seed int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
				strings.NewReader(fmt.Sprintf(`{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":%d}`, seed)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	solveAsync(70)
	<-started
	solveAsync(71)
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}

	if status, data := getTrace(t, srv, sr.Hash); status != http.StatusTooManyRequests {
		t.Fatalf("trace under a full queue: %d %s", status, data)
	}
	if got := s.traceReplays.Load(); got != 0 || len(s.jobs) != 1 {
		t.Fatalf("shed trace request was admitted: replays=%d queued=%d", got, len(s.jobs))
	}

	unblock()
	wg.Wait()
	if status, data := getTrace(t, srv, sr.Hash); status != http.StatusOK || s.traceReplays.Load() != 1 {
		t.Fatalf("trace after the queue drained: %d (replays=%d) %.200s", status, s.traceReplays.Load(), data)
	}

	s.Close()
	if status, data := getTrace(t, srv, sr.Hash); status != http.StatusServiceUnavailable {
		t.Fatalf("trace after Close: %d %s", status, data)
	}
}
