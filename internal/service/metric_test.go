package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func metricRequest(metric string, seed int64) SolveRequest {
	r := walkRequest(seed)
	r.Metric = metric
	return r
}

// All three built-in metrics solve end-to-end through the service, with
// byte-identical cached replays, distinct content hashes, and the canonical
// metric name echoed in the response.
func TestSolveMetricsEndToEnd(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	hashes := map[string]string{}
	for _, name := range []string{"l1", "l2", "linf"} {
		cold, err := s.Solve(metricRequest(name, 5))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		warm, err := s.Solve(metricRequest(name, 5))
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if !warm.Hit || !bytes.Equal(cold.Body, warm.Body) {
			t.Fatalf("%s: cached replay not byte-identical (hit=%v)", name, warm.Hit)
		}
		var resp SolveResponse
		if err := json.Unmarshal(cold.Body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Metric != name {
			t.Errorf("%s: response metric %q", name, resp.Metric)
		}
		if !resp.AllAwake {
			t.Errorf("%s: run left robots asleep", name)
		}
		if prev, dup := hashes[cold.Hash]; dup {
			t.Errorf("metrics %s and %s share hash %s", name, prev, cold.Hash)
		}
		hashes[cold.Hash] = name
	}
	// The omitted metric is ℓ2: same hash, same cache entry.
	sv, err := s.Solve(walkRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	if hashes[sv.Hash] != "l2" || !sv.Hit {
		t.Errorf("omitted metric did not alias the ℓ2 entry (hash %s, hit %v)", sv.Hash, sv.Hit)
	}
}

// lp:2 normalizes to ℓ2 at the wire boundary too — one cache entry, one key.
func TestSolveMetricLp2AliasesL2(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	a, err := s.Solve(metricRequest("l2", 6))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Solve(metricRequest("lp:2", 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash || !b.Hit {
		t.Fatalf("lp:2 (%s, hit=%v) did not alias l2 (%s)", b.Hash, b.Hit, a.Hash)
	}
}

// Unknown and degenerate metric spellings are rejected with ErrBadRequest —
// mapped to HTTP 400 — for both solve and portfolio requests, never silently
// defaulted.
func TestMetricBadRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	for _, bad := range []string{"l3", "lp:0", "lp:NaN", "lp:-1", "lp:", "chebishev"} {
		if _, err := s.Solve(metricRequest(bad, 1)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Solve metric %q: got %v, want ErrBadRequest", bad, err)
		}
		pr := portfolioRequest(1)
		pr.Metric = bad
		if _, err := s.SolvePortfolio(pr); !errors.Is(err, ErrBadRequest) {
			t.Errorf("SolvePortfolio metric %q: got %v, want ErrBadRequest", bad, err)
		}
	}
	// And over HTTP: a degenerate metric answers 400 with a parse message.
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"algorithm":"agrid","family":"walk","n":8,"param":0.9,"metric":"lp:0"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("degenerate metric answered %d, want 400", resp.StatusCode)
	}
}

// A portfolio race under a non-default metric is content-addressed, cached,
// and byte-stable like any other request.
func TestPortfolioMetricCached(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	req := portfolioRequest(11)
	req.Metric = "l1"
	cold, err := s.SolvePortfolio(req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.SolvePortfolio(req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || !bytes.Equal(cold.Body, warm.Body) {
		t.Fatal("l1 portfolio replay not byte-identical")
	}
	var resp PortfolioResponse
	if err := json.Unmarshal(cold.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metric != "l1" || !resp.AllAwake {
		t.Fatalf("implausible l1 race response: metric=%q allAwake=%v", resp.Metric, resp.AllAwake)
	}
	l2req := portfolioRequest(11)
	l2, err := s.SolvePortfolio(l2req)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Hash == cold.Hash {
		t.Fatal("l1 and l2 races share a hash")
	}
}

// gateRelease returns the function that opens gate, closing it once, and
// registers that function as a cleanup too. Registered after
// newTestService's cleanup, it runs before s.Close (cleanups run last in,
// first out), so a test that fails while workers wait at the gate reports
// its failure instead of hanging in Close.
func gateRelease(t *testing.T, gate chan struct{}) func() {
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return release
}

// Queue-level admission accounts for race width: a k-entrant race reserves
// min(k, Workers) effective slots, so a burst of portfolio requests sheds
// before it can oversubscribe the host — even when a width-blind job count
// would still admit more work.
func TestRaceWidthAdmissionSheds(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, Config{Workers: 2, QueueDepth: 2, preSolve: func() { <-gate }})
	release := gateRelease(t, gate)
	// Admission capacity = QueueDepth + Workers = 4 effective slots.

	pfReq := func(seed int64) PortfolioRequest {
		return PortfolioRequest{
			Algorithms: []string{"agrid", "aseparator"}, // width 2
			Family:     "walk", N: 12, Param: 0.9, Seed: seed,
		}
	}
	results := make(chan error, 2)
	for _, seed := range []int64{1, 2} {
		seed := seed
		go func() {
			_, err := s.SolvePortfolio(pfReq(seed))
			results <- err
		}()
	}
	// Wait until both races are admitted (weight 4 = capacity).
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueWeight < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("races never admitted: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.AdmissionCap != 4 || st.QueueWeight != 4 {
		t.Fatalf("weight accounting off: %+v", st)
	}

	// Width-blind admission would accept this width-1 solve (only 2 jobs are
	// outstanding against a depth-2 queue + 2 workers); width accounting must
	// shed it, because the two races already reserve all 4 slots.
	if _, err := s.Solve(walkRequest(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request got %v, want ErrQueueFull", err)
	}
	shed := s.Stats().Shed

	release()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted race failed: %v", err)
		}
	}
	// Weight drains with completion; the shed request succeeds on retry.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := s.Solve(walkRequest(3)); err == nil {
			break
		} else if !errors.Is(err, ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("retry after drain: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Stats(); st.Shed != shed {
		t.Fatalf("retry shed again: %+v", st)
	}
	if got := s.Stats().QueueWeight; got != 0 {
		t.Fatalf("queue weight leaked: %d", got)
	}
}

// Width-1 loads shed at exactly the pre-refactor point: Workers running +
// QueueDepth queued, one more sheds.
func TestWidthOneAdmissionMatchesLegacy(t *testing.T) {
	gate := make(chan struct{})
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, preSolve: func() { <-gate }})
	release := gateRelease(t, gate)
	done := make(chan error, 2)
	for _, seed := range []int64{21, 22} {
		seed := seed
		go func() {
			_, err := s.Solve(walkRequest(seed))
			done <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueWeight < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("solves never admitted: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Solve(walkRequest(23)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow got %v, want ErrQueueFull", err)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
