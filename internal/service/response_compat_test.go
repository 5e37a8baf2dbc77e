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

// responseFixture is one locked served response: the raw request JSON
// (solve or race) and the exact body the service returned for it under
// Config{Workers: 2} when the fixture was recorded. These requests must
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
// response bodies and request hashes to the recorded fixtures: the
// pre-heterogeneity set (n ≤ 24) and the set of ℓp requests and of n ≥ 48,
// where the parameter derivation runs its grid passes.
func TestResponseCompatPR5Golden(t *testing.T) {
	var fs []responseFixture
	for _, name := range []string{"testdata/response_golden_pr5.json", "testdata/response_golden_pr20.json"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var file []responseFixture
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(file) < 4 {
			t.Fatalf("%s: only %d fixtures — the golden set was truncated", name, len(file))
		}
		fs = append(fs, file...)
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
