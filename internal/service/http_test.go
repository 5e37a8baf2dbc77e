package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

const walkBody = `{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":1}`

func postSolve(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
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

// End-to-end acceptance: two identical POSTs over a live server run one
// simulation and return byte-identical bodies, with X-Cache miss then hit.
func TestHTTPSolveTwiceOneSimulation(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2})

	r1, b1 := postSolve(t, srv, walkBody)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: %d %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q", got)
	}
	r2, b2 := postSolve(t, srv, walkBody)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("warm X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs from cold body:\n%s\nvs\n%s", b1, b2)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("two identical POSTs ran %d simulations, want 1", got)
	}
}

// Hammer the server with concurrent identical and distinct requests, each
// followed by a replay of its trace; run with -race. Identical requests must
// coalesce to one simulation each, and replays never count as solves.
func TestHTTPConcurrentHammer(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 4, QueueDepth: 128})
	const perSeed, seeds = 8, 4

	var wg sync.WaitGroup
	errCh := make(chan error, perSeed*seeds)
	for seed := 0; seed < seeds; seed++ {
		body := fmt.Sprintf(`{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":%d}`, seed)
		for k := 0; k < perSeed; k++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var sr SolveResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("solve: status %d: %v", resp.StatusCode, err)
					return
				}
				tr, err := http.Get(srv.URL + "/v1/trace/" + sr.Hash)
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, tr.Body)
				tr.Body.Close()
				if tr.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("trace: status %d", tr.StatusCode)
				}
			}(body)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := s.Stats().Solves; got != seeds {
		t.Fatalf("ran %d simulations for %d distinct payloads", got, seeds)
	}
	if got := s.traceReplays.Load(); got != perSeed*seeds {
		t.Fatalf("%d trace replays for %d trace requests", got, perSeed*seeds)
	}
}

func TestHTTPProbe(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	// Probe before solving: 404 and no computation.
	resp, err := http.Get(srv.URL + "/v1/solve/0000000000000000000000000000000000000000000000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("probe of unknown hash: %d", resp.StatusCode)
	}

	_, body := postSolve(t, srv, walkBody)
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/solve/" + sr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	probed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("probe after solve: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(probed, body) {
		t.Fatal("probe body differs from solve body")
	}
}

func TestHTTPTraceNDJSON(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	_, body := postSolve(t, srv, walkBody)
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/trace/" + sr.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type %q", ct)
	}
	wakes, lines := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var ev struct {
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v (%q)", lines, err, sc.Text())
		}
		if ev.Kind == "wake" {
			wakes++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || wakes != 24 {
		t.Fatalf("trace stream: %d lines, %d wakes (want 24 wakes)", lines, wakes)
	}

	resp, err = http.Get(srv.URL + "/v1/trace/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown hash: %d", resp.StatusCode)
	}
}

func TestHTTPBatchOrderPreserving(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	batch := `{"requests":[
		{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":1},
		{"algorithm":"awave","family":"line","n":10,"param":1.0},
		{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":1},
		{"algorithm":"nope","family":"walk","n":8,"param":1.0}
	]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, data)
	}
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 4 {
		t.Fatalf("%d results for 4 requests", len(br.Results))
	}
	var first, third SolveResponse
	if err := json.Unmarshal(br.Results[0].Response, &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(br.Results[2].Response, &third); err != nil {
		t.Fatal(err)
	}
	if first.Algorithm != "AGrid" || first.N != 24 {
		t.Fatalf("slot 0 out of order: %+v", first)
	}
	if !bytes.Equal(br.Results[0].Response, br.Results[2].Response) {
		t.Fatal("duplicate batch items returned different bytes")
	}
	var second SolveResponse
	if err := json.Unmarshal(br.Results[1].Response, &second); err != nil {
		t.Fatal(err)
	}
	if second.Algorithm != "AWave" || second.N != 10 {
		t.Fatalf("slot 1 out of order: %+v", second)
	}
	if br.Results[3].Error == "" || br.Results[3].Response != nil {
		t.Fatalf("slot 3 should be an error: %+v", br.Results[3])
	}
	// Duplicates coalesce across a batch too: 2 simulations, not 3.
	if got := s.Stats().Solves; got != 2 {
		t.Fatalf("batch ran %d simulations, want 2", got)
	}
}

// A batch with more distinct items than the queue depth must not shed its
// own tail: batch fan-out is bounded, so an otherwise idle server completes
// every item.
func TestHTTPBatchLargerThanQueue(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	const items = 12
	for i := 0; i < items; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"algorithm":"agrid","family":"walk","n":16,"param":0.9,"seed":%d}`, 200+i)
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var br BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != items {
		t.Fatalf("%d results for %d requests", len(br.Results), items)
	}
	for i, item := range br.Results {
		if item.Error != "" || item.Response == nil {
			t.Fatalf("slot %d shed or empty on an idle server: %+v", i, item)
		}
	}
	if got := s.Stats().Shed; got != 0 {
		t.Fatalf("idle-server batch shed %d items", got)
	}
}

func TestHTTPHealthzStatsz(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	postSolve(t, srv, walkBody)
	postSolve(t, srv, walkBody)
	resp, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("statsz not JSON: %v (%s)", err, data)
	}
	if st.Solves != 1 || st.Hits != 1 || st.Misses != 1 || st.CacheLen != 1 {
		t.Fatalf("statsz = %+v", st)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`not json at all`,
		`{"algorithm":"dijkstra","family":"walk","n":8,"param":1}`,
		`{"algorithm":"agrid"}`,
		`{"algorithm":"agrid","family":"torus","n":8,"param":1}`,
	}
	for _, body := range cases {
		resp, data := postSolve(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d (%s), want 400", body, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), `"error"`) {
			t.Errorf("payload %q: error body %q", body, data)
		}
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{}, 64)
	s := New(Config{Workers: 1, QueueDepth: 1, preSolve: func() {
		started <- struct{}{}
		<-release
	}})
	srv := httptest.NewServer(s.Handler())
	defer func() {
		once.Do(func() { close(release) })
		srv.Close()
		s.Close()
	}()

	solveAsync := func(seed int64) {
		go func() {
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
				strings.NewReader(fmt.Sprintf(`{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":%d}`, seed)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	solveAsync(50)
	<-started
	solveAsync(51)
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}

	resp, data := postSolve(t, srv, `{"algorithm":"agrid","family":"walk","n":24,"param":0.9,"seed":52}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}
