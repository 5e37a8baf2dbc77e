package service

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"testing"
)

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// responseFixture is one locked pre-heterogeneity (PR 5) served response:
// the raw request JSON (solve or race) and the exact body PR 5 returned for
// it under Config{Workers: 2}. Profile-free requests must
// keep serving these bytes — the hash is a live cache key and the body is
// what clients replay against.
type responseFixture struct {
	Desc  string          `json:"desc"`
	Solve json.RawMessage `json:"solve,omitempty"`
	Race  json.RawMessage `json:"race,omitempty"`
	Hash  string          `json:"hash"`
	Body  string          `json:"body"`
}

// Homogeneous requests — no profiles field — must produce byte-identical
// response bodies and request hashes to the PR 5 service.
func TestResponseCompatPR5Golden(t *testing.T) {
	data, err := os.ReadFile("testdata/response_golden_pr5.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs []responseFixture
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs) < 4 {
		t.Fatalf("only %d fixtures — the golden set was truncated", len(fs))
	}
	// Full instrumentation on — request logging included — to pin down that
	// timing and telemetry live only in headers/logs, never in the bodies.
	logger := slog.New(slog.NewJSONHandler(io.Discard, nil))
	_, srv := newTestServer(t, Config{Workers: 2, Logger: logger})
	for _, f := range fs {
		path, req := "/v1/solve", f.Solve
		if req == nil {
			path, req = "/v1/portfolio", f.Race
		}
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(req)))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", f.Desc, resp.StatusCode, body)
			continue
		}
		if got := strings.TrimRight(string(body), "\n"); got != f.Body {
			t.Errorf("%s: body changed:\n got  %s\n want %s", f.Desc, got, f.Body)
		}
		var out struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", f.Desc, err)
		}
		if out.Hash != f.Hash {
			t.Errorf("%s: hash changed:\n got  %s\n want %s", f.Desc, out.Hash, f.Hash)
		}
	}
}
