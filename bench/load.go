package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freezetag/internal/service"
)

// server is one system under test: a default-configured service behind a
// loopback listener, and a client held to nconn keep-alive connections.
type server struct {
	svc    *service.Service
	hs     *httptest.Server
	client *http.Client
}

func startServer(nconn int) *server {
	svc := service.New(service.Config{})
	tr := &http.Transport{MaxIdleConns: nconn, MaxIdleConnsPerHost: nconn, MaxConnsPerHost: nconn, DisableCompression: true}
	return &server{svc: svc, hs: httptest.NewServer(svc.Handler()), client: &http.Client{Transport: tr}}
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	s.svc.Close()
}

// post sends r, reads the response body into buf, and returns the status
// and the Server-Timing header.
func (s *server) post(r *request, buf *bytes.Buffer) (int, string, error) {
	resp, err := s.client.Post(s.hs.URL+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("Server-Timing"), nil
}

// golden is one locked response fixture: a request and the exact body the
// service must serve for it.
type golden struct {
	Desc  string          `json:"desc"`
	Solve json.RawMessage `json:"solve,omitempty"`
	Race  json.RawMessage `json:"race,omitempty"`
	Body  string          `json:"body"`
}

func loadGoldens(path string) ([]golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gs []golden
	if err := json.Unmarshal(data, &gs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(gs) < 4 {
		return nil, fmt.Errorf("%s: %d fixtures, want at least 4", path, len(gs))
	}
	return gs, nil
}

// gate posts every golden request and requires the fixture's bytes back.
func gate(s *server, gs []golden) error {
	var buf bytes.Buffer
	for _, g := range gs {
		r := request{path: solvePath, body: g.Solve}
		if g.Race != nil {
			r.path, r.body = portfolioPath, g.Race
		}
		status, _, err := s.post(&r, &buf)
		if err != nil {
			return fmt.Errorf("golden %q: %w", g.Desc, err)
		}
		if got := strings.TrimRight(buf.String(), "\n"); status != http.StatusOK || got != g.Body {
			return fmt.Errorf("golden %q: status %d, body differs from the fixture:\n got  %s\n want %s", g.Desc, status, got, g.Body)
		}
	}
	return nil
}

const (
	// timingEvery: the Server-Timing header of every 16th request is kept
	// for the per-layer stage metrics.
	timingEvery = 16
	// checkEvery: the body of every 64th request is kept and checked.
	checkEvery = 64
	// failedLatency ranks a failed request above every measured latency,
	// so failures count against the percentiles.
	failedLatency = time.Duration(math.MaxInt64)
)

// phase is one request sequence driven through the closed loop.
type phase struct {
	name    string
	seq     []int32
	lat     []time.Duration
	timing  []string
	bodies  [][]byte
	failed  atomic.Int64
	elapsed time.Duration

	errMu    sync.Mutex
	firstErr error
}

func (ph *phase) fail(i int, err error) {
	ph.lat[i] = failedLatency
	ph.failed.Add(1)
	ph.errMu.Lock()
	if ph.firstErr == nil {
		ph.firstErr = fmt.Errorf("%s request %d: %w", ph.name, i, err)
	}
	ph.errMu.Unlock()
}

// drive sends seq over the closed loop: clients goroutines, each sending
// its next request when the previous reply is read, taking indices from a
// shared counter so the sequence is sent in order. Requests still unsent
// when limit has passed count as failed.
func (s *server) drive(name string, p *plan, seq []int32, clients int, limit time.Duration) *phase {
	ph := &phase{
		name:   name,
		seq:    seq,
		lat:    make([]time.Duration, len(seq)),
		timing: make([]string, (len(seq)+timingEvery-1)/timingEvery),
		bodies: make([][]byte, (len(seq)+checkEvery-1)/checkEvery),
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for range clients {
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				r := &p.reqs[seq[i]]
				if time.Since(start) > limit {
					ph.fail(i, fmt.Errorf("%s: unsent after %v", r.desc, limit))
					continue
				}
				t0 := time.Now()
				status, timing, err := s.post(r, &buf)
				ph.lat[i] = time.Since(t0)
				switch {
				case err != nil:
					ph.fail(i, fmt.Errorf("%s: %w", r.desc, err))
					continue
				case status != http.StatusOK:
					ph.fail(i, fmt.Errorf("%s: status %d: %.200s", r.desc, status, buf.Bytes()))
					continue
				}
				if i%timingEvery == 0 {
					ph.timing[i/timingEvery] = timing
				}
				if i%checkEvery == 0 {
					ph.bodies[i/checkEvery] = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// check decodes every kept body and requires the swarm fully awake with no
// schedule misses, or, under faults, a completion of 1.
func (ph *phase) check(p *plan) error {
	for k, b := range ph.bodies {
		if b == nil {
			continue // that request failed and is already counted
		}
		i := k * checkEvery
		var out struct {
			AllAwake bool     `json:"allAwake"`
			Misses   []string `json:"misses"`
			Faults   *struct {
				Completion float64 `json:"completion"`
			} `json:"faults"`
		}
		var err error
		switch jerr := json.Unmarshal(b, &out); {
		case jerr != nil:
			err = jerr
		case out.Faults != nil:
			if out.Faults.Completion != 1 {
				err = fmt.Errorf("completion %g under faults, want 1", out.Faults.Completion)
			}
		case !out.AllAwake:
			err = errors.New("not every robot woke")
		case len(out.Misses) > 0:
			err = fmt.Errorf("%d schedule misses: %q", len(out.Misses), out.Misses[0])
		}
		if err != nil {
			return fmt.Errorf("%s request %d (%s): %w", ph.name, i, p.reqs[ph.seq[i]].desc, err)
		}
	}
	return nil
}

// stages is one parsed Server-Timing header, in milliseconds. A stage the
// server did not run is negative.
type stages struct {
	outcome                             string
	resolve, queue, sim, marshal, total float64
}

func parseTiming(h string) (stages, bool) {
	st := stages{resolve: -1, queue: -1, sim: -1, marshal: -1, total: -1}
	for _, entry := range strings.Split(h, ", ") {
		name, param, _ := strings.Cut(entry, ";")
		if name == "cache" {
			st.outcome = strings.TrimPrefix(param, "desc=")
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(param, "dur="), 64)
		if err != nil {
			continue
		}
		switch name {
		case "resolve":
			st.resolve = v
		case "queue":
			st.queue = v
		case "sim":
			st.sim = v
		case "marshal":
			st.marshal = v
		case "total":
			st.total = v
		}
	}
	return st, st.total >= 0
}

// quantile is the nearest-rank q-quantile of xs: an observed value, never
// an interpolation. xs is sorted in place; empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// mean of xs; the mean keeps the digits that 1 µs Server-Timing
// resolution takes from a median of µs-scale stages.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// endToEnd computes the user-visible measurements of the measured phase and
// set-up.
func endToEnd(ph *phase, setups []time.Duration, peakRSS float64) map[string]metric {
	n := len(ph.seq)
	failed := ph.failed.Load()
	ms := make([]float64, n)
	for i, d := range ph.lat {
		ms[i] = float64(d) / float64(time.Millisecond)
		if d == failedLatency {
			ms[i] = math.Inf(1)
		}
	}
	setup := make([]float64, len(setups))
	for i, d := range setups {
		setup[i] = d.Seconds()
	}
	return map[string]metric{
		"throughput_rps": {float64(int64(n)-failed) / ph.elapsed.Seconds(), "req/s"},
		"latency_p50_ms": {quantile(ms, 0.50), "ms"},
		"latency_p99_ms": {quantile(ms, 0.99), "ms"},
		"ok_ratio":       {ratio(int64(n)-failed, int64(n)), "ratio"},
		"setup_s":        {quantile(setup, 0.5), "s"},
		"peak_rss_mb":    {peakRSS, "MiB"},
	}
}

// loadLayers computes the measurements that only exist under load:
// server-reported stage times from the sampled Server-Timing headers, the
// service's counter deltas across the measured phase, and process-wide
// allocation and GC deltas (load generator included).
func loadLayers(ph *phase, st0, st1 service.Stats, ms0, ms1 *runtime.MemStats) map[string]metric {
	var transport, resolve, sim, queue []float64
	for k, h := range ph.timing {
		st, ok := parseTiming(h)
		if !ok {
			continue
		}
		lat := ph.lat[k*timingEvery]
		transport = append(transport, float64(lat)/float64(time.Microsecond)-st.total*1e3)
		resolve = append(resolve, st.resolve*1e3)
		if st.queue >= 0 {
			queue = append(queue, st.queue*1e3)
		}
		if st.outcome == service.OutcomeMiss {
			sim = append(sim, st.sim)
		}
	}
	hits, coalesced, misses := st1.Hits-st0.Hits, st1.Coalesced-st0.Coalesced, st1.Misses-st0.Misses
	lookups := hits + coalesced + misses
	// Every miss adds one entry, so the entries evicted are the misses less
	// the growth of the cache.
	evicted := misses - int64(st1.CacheLen-st0.CacheLen)
	done := int64(len(ph.seq)) - ph.failed.Load()
	return map[string]metric{
		"service.transport_us":          {quantile(transport, 0.5), "us"},
		"service.resolve_us":            {mean(resolve), "us"},
		"service.sim_ms":                {quantile(sim, 0.5), "ms"},
		"service.queue_us_p99":          {quantile(queue, 0.99), "us"},
		"service.memo_hit_ratio":        {ratio(st1.MemoHits-st0.MemoHits, hits+coalesced), "ratio"},
		"service.params_memo_hit_ratio": {ratio(st1.ParamsMemoHits-st0.ParamsMemoHits, misses), "ratio"},
		"service.hit_ratio":             {ratio(hits+coalesced, lookups), "ratio"},
		"service.coalesce_ratio":        {ratio(coalesced, lookups), "ratio"},
		"service.eviction_ratio":        {ratio(evicted, lookups), "ratio"},
		"service.shed_ratio":            {ratio(st1.Shed-st0.Shed, int64(len(ph.seq))), "ratio"},
		"service.alloc_kb_per_req":      {ratio(int64(ms1.TotalAlloc-ms0.TotalAlloc), done) / 1024, "KiB"},
		"service.gc_per_kreq":           {ratio(int64(ms1.NumGC-ms0.NumGC)*1000, done), "count"},
	}
}
