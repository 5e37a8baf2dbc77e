package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// The disk/60/1.2/seed-5 instance with fault seed 42 is the same draw as the
// dftp-level repair tests — crashes land on mid-escort carriers, so rescues
// are guaranteed to fire.
const faultedWalkBody = `{"algorithm":"agrid","family":"disk","n":60,"param":1.2,"seed":5,` +
	`"faults":{"kind":"crash-stop","rate":0.3,"seed":42,"repair":true}}`

// A faulted solve returns 200 with the spec echoed back plus fault and
// repair counters, and with repair enabled on crash-stop the swarm still
// reaches full completion.
func TestHTTPFaultedSolve(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, body := postSolve(t, srv, faultedWalkBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted solve: %d %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Faults == nil {
		t.Fatal("faulted solve response has no faults echo")
	}
	if sr.Faults.Spec.Kind != "crash-stop" || sr.Faults.Spec.Rate != 0.3 ||
		sr.Faults.Spec.Seed != 42 || !sr.Faults.Spec.Repair {
		t.Fatalf("faults spec not echoed: %+v", sr.Faults.Spec)
	}
	if sr.Faults.Injected == 0 || sr.Faults.CrashStops == 0 {
		t.Fatalf("rate-0.25 crash-stop injected nothing: %+v", sr.Faults)
	}
	if sr.Faults.Repairs == 0 {
		t.Fatalf("repair enabled but no repairs recorded: %+v", sr.Faults)
	}
	if !sr.AllAwake || sr.Faults.Completion != 1 {
		t.Fatalf("repaired crash-stop run incomplete: allAwake=%v completion=%v",
			sr.AllAwake, sr.Faults.Completion)
	}
}

// A fault-free solve must not grow a faults field — the response bytes are
// golden-locked to the pre-fault era.
func TestHTTPFaultFreeOmitsFaults(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	_, body := postSolve(t, srv, walkBody)
	if bytes.Contains(body, []byte(`"faults"`)) {
		t.Fatalf("fault-free response mentions faults: %s", body)
	}
}

// Malformed fault specs are rejected with 400 before any work is queued.
func TestHTTPFaultedSolveBadSpec(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 1})
	bad := []struct {
		name, faults string
	}{
		{"rate above one", `{"kind":"crash-stop","rate":1.5}`},
		{"negative rate", `{"kind":"crash-stop","rate":-0.1}`},
		{"unknown kind", `{"kind":"meteor-strike","rate":0.1}`},
		{"byzantine without count", `{"kind":"byzantine"}`},
		{"negative downtime", `{"kind":"crash-recovery","rate":0.1,"downtime":-2}`},
	}
	for _, c := range bad {
		body := `{"algorithm":"agrid","family":"walk","n":16,"param":0.9,"seed":1,"faults":` + c.faults + `}`
		resp, data := postSolve(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, data)
		}
	}
	if got := s.Stats().Solves; got != 0 {
		t.Fatalf("rejected requests still ran %d simulations", got)
	}
}

// The same instance with and without faults — and with two different fault
// specs — are three distinct requests: distinct hashes, distinct bodies, no
// memo aliasing in either direction.
func TestHTTPFaultedNoAliasing(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	bodies := []string{
		`{"algorithm":"agrid","family":"disk","n":60,"param":1.2,"seed":5}`,
		faultedWalkBody,
		`{"algorithm":"agrid","family":"disk","n":60,"param":1.2,"seed":5,` +
			`"faults":{"kind":"wake-drop","rate":0.3,"seed":42,"repair":true}}`,
	}
	seen := map[string]string{}
	for _, b := range bodies {
		resp, data := postSolve(t, srv, b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %s: %d %s", b, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("first POST of %s hit the cache (%q) — memo aliasing", b, got)
		}
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[sr.Hash]; dup {
			t.Fatalf("hash collision between %s and %s", prev, b)
		}
		seen[sr.Hash] = b
	}
}

// Replaying a faulted request hits the cache and returns byte-identical
// bodies — fault injection is deterministic, so the memo is sound.
func TestHTTPFaultedReplayCached(t *testing.T) {
	s, srv := newTestServer(t, Config{Workers: 2})
	r1, b1 := postSolve(t, srv, faultedWalkBody)
	r2, b2 := postSolve(t, srv, faultedWalkBody)
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d %d", r1.StatusCode, r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("faulted replay X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("faulted replay body differs:\n%s\nvs\n%s", b1, b2)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("two identical faulted POSTs ran %d simulations", got)
	}
}

// After a faulted solve the metrics endpoint exposes the injection and
// repair counters.
func TestHTTPFaultMetrics(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	if resp, body := postSolve(t, srv, faultedWalkBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted solve: %d %s", resp.StatusCode, body)
	}
	resp, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	if !strings.Contains(text, `dftp_faults_injected_total{kind="crash-stop"}`) {
		t.Errorf("metricsz missing dftp_faults_injected_total{kind=\"crash-stop\"}:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `dftp_faults_injected_total{kind="crash-stop"}`) &&
			strings.HasSuffix(strings.TrimSpace(line), " 0") {
			t.Errorf("crash-stop injection counter still zero: %s", line)
		}
	}
	if !strings.Contains(text, "dftp_repairs_total") {
		t.Errorf("metricsz missing dftp_repairs_total")
	}
}

// The under-faults portfolio objective requires a faults spec; without one
// the request is a 400, with one it runs and reports a winner.
func TestHTTPPortfolioUnderFaults(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 4})
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/portfolio", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	missing := `{"algorithms":["agrid","awave"],"objective":"min-makespan-under-faults",` +
		`"family":"walk","n":24,"param":0.9,"seed":1}`
	if resp, data := post(missing); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("under-faults without faults: %d %s", resp.StatusCode, data)
	}

	ok := `{"algorithms":["agrid","awave"],"objective":"min-makespan-under-faults:draws=2",` +
		`"family":"walk","n":24,"param":0.9,"seed":1,` +
		`"faults":{"kind":"crash-stop","rate":0.2,"seed":11,"repair":true}}`
	resp, data := post(ok)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-faults portfolio: %d %s", resp.StatusCode, data)
	}
	var pr PortfolioResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Faults == nil || pr.Faults.Spec.Kind != "crash-stop" {
		t.Fatalf("portfolio response faults echo: %+v", pr.Faults)
	}
	if pr.Winner == "" {
		t.Fatalf("no winner: %s", data)
	}
}
