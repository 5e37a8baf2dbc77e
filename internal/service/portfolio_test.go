package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"freezetag/internal/portfolio"
)

func portfolioRequest(seed int64) PortfolioRequest {
	return PortfolioRequest{
		Algorithms: []string{"aseparator", "agrid", "awave", "aseparatorauto"},
		Objective:  "min-makespan",
		Family:     "walk", N: 24, Param: 0.9, Seed: seed,
	}
}

// The PR's acceptance criterion: two identical portfolio requests return
// byte-identical bodies with the second a cache hit — and the bytes do not
// depend on the service's worker count, because race outcomes are decided
// by portfolio order and simulation content, never scheduling.
func TestPortfolioByteIdenticalAndCached(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	cold, err := s.SolvePortfolio(portfolioRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit {
		t.Fatal("first race reported a cache hit")
	}
	warm, err := s.SolvePortfolio(portfolioRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || !bytes.Equal(cold.Body, warm.Body) {
		t.Fatalf("second identical race: hit=%v, bytes equal=%v", warm.Hit, bytes.Equal(cold.Body, warm.Body))
	}
	if got := s.Stats().Races; got != 1 {
		t.Fatalf("two identical requests ran %d races, want 1", got)
	}

	for _, workers := range []int{1, 3} {
		other := newTestService(t, Config{Workers: workers})
		sv, err := other.SolvePortfolio(portfolioRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sv.Body, cold.Body) {
			t.Fatalf("workers=%d changed the response bytes:\n%s\nvs\n%s", workers, sv.Body, cold.Body)
		}
	}

	var resp PortfolioResponse
	if err := json.Unmarshal(cold.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Hash != cold.Hash || !resp.AllAwake || len(resp.Racers) != 4 {
		t.Fatalf("implausible response: %+v", resp)
	}
	if !strings.HasPrefix(resp.Algorithm, "portfolio[") || resp.Objective != "min-makespan" {
		t.Fatalf("descriptor fields: alg=%q obj=%q", resp.Algorithm, resp.Objective)
	}
	won := 0
	for _, rr := range resp.Racers {
		if rr.Status == "won" {
			won++
			if rr.Algorithm != resp.Winner {
				t.Fatalf("winner mismatch: %q vs %q", rr.Algorithm, resp.Winner)
			}
		}
	}
	if won != 1 {
		t.Fatalf("%d racers won", won)
	}
}

// first-under-budget over HTTP: the losing racers are cancelled (visible in
// the racer stats and the racersCancelled counter), the second identical
// POST is a cache hit, and the cached race is probe-able by hash.
func TestHTTPPortfolioFirstUnderCancels(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 4})
	body := `{"algorithms":["agrid","aseparator","awave"],` +
		`"objective":"first-under-budget:makespan=1e9",` +
		`"family":"walk","n":24,"param":0.9,"seed":2}`
	post := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/portfolio", "application/json", strings.NewReader(body))
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
	r1, b1 := post()
	if r1.StatusCode != http.StatusOK || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold race: %d X-Cache=%q %s", r1.StatusCode, r1.Header.Get("X-Cache"), b1)
	}
	r2, b2 := post()
	if r2.Header.Get("X-Cache") != "hit" || !bytes.Equal(b1, b2) {
		t.Fatalf("warm race: X-Cache=%q, identical=%v", r2.Header.Get("X-Cache"), bytes.Equal(b1, b2))
	}

	var resp PortfolioResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Satisfied || resp.Winner != "AGrid" || resp.Cancelled != 2 {
		t.Fatalf("race outcome: %+v", resp)
	}
	for _, rr := range resp.Racers[1:] {
		if rr.Status != "cancelled" || rr.Makespan != 0 {
			t.Fatalf("loser not cancelled cleanly: %+v", rr)
		}
	}
	if got := s.Stats().RacersCancelled; got != 2 {
		t.Fatalf("racersCancelled = %d, want 2", got)
	}

	// The cached race is content-addressed like any solve.
	probe, err := http.Get(srv.URL + "/v1/solve/" + resp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	probed, _ := io.ReadAll(probe.Body)
	probe.Body.Close()
	if probe.StatusCode != http.StatusOK || !bytes.Equal(probed, b1) {
		t.Fatalf("probe by hash: %d", probe.StatusCode)
	}
	// And its winning run's trace streams as NDJSON.
	tr, err := http.Get(srv.URL + "/v1/trace/" + resp.Hash)
	if err != nil {
		t.Fatal(err)
	}
	ndjson, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK || len(bytes.TrimSpace(ndjson)) == 0 {
		t.Fatalf("trace by hash: %d (%d bytes)", tr.StatusCode, len(ndjson))
	}
}

// The served race equals a direct portfolio.Race of the same resolved
// request — the service adds caching, never semantics.
func TestPortfolioMatchesDirectRace(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	sv, err := s.SolvePortfolio(portfolioRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	pf, err := portfolioFor(portfolioRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	req := portfolioRequest(3).solveRequest()
	r, err := s.resolve(pf.Name(), nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := portfolio.Race(pf, r.inst, r.tup, r.budget, portfolio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(NewPortfolioResponse(r.hash, pf, r.metric, r.inst, r.tup, r.budget, direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sv.Body, body) {
		t.Fatalf("served race differs from direct race:\n%s\nvs\n%s", sv.Body, body)
	}
}

// Repeated family-shaped portfolio requests ride the shape→hash memo.
func TestPortfolioMemo(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	if _, err := s.SolvePortfolio(portfolioRequest(4)); err != nil {
		t.Fatal(err)
	}
	warm, err := s.SolvePortfolio(portfolioRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || s.Stats().MemoHits != 1 {
		t.Fatalf("hit=%v memoHits=%d", warm.Hit, s.Stats().MemoHits)
	}
	// Different objective ⇒ different shape, different hash, new race.
	req := portfolioRequest(4)
	req.Objective = "min-energy"
	sv, err := s.SolvePortfolio(req)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Hit || sv.Hash == warm.Hash {
		t.Fatal("objective is not part of the portfolio identity")
	}
}

func TestPortfolioBadRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	tooMany := make([]string, maxPortfolioAlgorithms+1)
	for i := range tooMany {
		tooMany[i] = "agrid"
	}
	cases := map[string]PortfolioRequest{
		"no algorithms":     {Objective: "min-makespan", Family: "walk", N: 8, Param: 1},
		"too many entrants": {Algorithms: tooMany, Family: "walk", N: 8, Param: 1},
		"unknown algorithm": {Algorithms: []string{"dijkstra"}, Family: "walk", N: 8, Param: 1},
		"bad objective":     {Algorithms: []string{"agrid"}, Objective: "fastest", Family: "walk", N: 8, Param: 1},
		"nan cap":           {Algorithms: []string{"agrid"}, Objective: "first-under-budget:makespan=nan", Family: "walk", N: 8, Param: 1},
		"no instance":       {Algorithms: []string{"agrid"}},
		"huge n":            {Algorithms: []string{"agrid"}, Family: "line", N: 1 << 40, Param: 1},
		"bad caps":          {Algorithms: []string{"agrid"}, Objective: "first-under-budget", Family: "walk", N: 8, Param: 1},
	}
	for name, req := range cases {
		if _, err := s.SolvePortfolio(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: got %v, want ErrBadRequest", name, err)
		}
	}
	if s.Stats().Races != 0 {
		t.Fatalf("bad requests ran %d races", s.Stats().Races)
	}
}

// Objective spellings that canonicalize identically share one cache entry.
func TestPortfolioObjectiveAliasesShareKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	a, err := s.SolvePortfolio(portfolioRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	req := portfolioRequest(5)
	req.Objective = "Makespan"
	b, err := s.SolvePortfolio(req)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Hit || a.Hash != b.Hash {
		t.Fatalf("alias missed the cache: %s vs %s", a.Hash, b.Hash)
	}
}
