package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"freezetag/internal/obs"
	"freezetag/internal/trace"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/solve            solve one request (cache-first; X-Cache: hit|miss)
//	POST /v1/portfolio        race several algorithms, return the winner (cache-first)
//	POST /v1/batch            solve many requests, order-preserving reply
//	GET  /v1/solve/{hash}     cache probe — never computes; 404 on miss
//	GET  /v1/trace/{hash}     cached run's event stream, replayed, as NDJSON; 404 on miss
//	GET  /healthz             liveness
//	GET  /statsz              cache/queue/solve/race counters (JSON view of /metricsz)
//	GET  /metricsz            full metric registry, Prometheus text exposition
//	GET  /buildz              build/version info and process uptime
//	GET  /tracez              flight recorder — recent kept request traces, newest first
//	GET  /tracez/{id}         one trace; ?format=trace-event emits Chrome trace JSON
//
// A client-supplied X-Request-ID is echoed on every response — success,
// shed, oversized-body, even 404 — so clients can correlate any outcome
// with their own logs.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", handleServe(s, (*Service).solveTraced))
	mux.HandleFunc("POST /v1/portfolio", handleServe(s, (*Service).portfolioTraced))
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/solve/{hash}", s.handleProbe)
	mux.HandleFunc("GET /v1/trace/{hash}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /buildz", s.handleBuildz)
	mux.HandleFunc("GET /tracez", s.handleTracez)
	mux.HandleFunc("GET /tracez/{id}", s.handleTracezOne)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rid := sanitizeRequestID(r.Header.Get("X-Request-ID")); rid != "" {
			w.Header().Set("X-Request-Id", rid)
		}
		mux.ServeHTTP(w, r)
	})
}

// decodeStatus maps a request-decode failure: oversized bodies are 413,
// everything else is 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeError renders a JSON error body. 429s carry a Retry-After derived
// from the live queue state rather than a constant, so backoff scales with
// how far behind the service actually is.
func (s *Service) writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Write(append(body, '\n'))
}

// retryAfterSeconds estimates how long a shed client should wait: the
// current backlog divided across the worker pool, priced at the mean
// simulation time observed so far (an optimistic 250ms before any solve
// has completed), clamped to [1s, 60s]. A nearly drained queue answers 1;
// a deep backlog of slow sims pushes clients to back off harder.
func (s *Service) retryAfterSeconds() int {
	depth := len(s.jobs)
	mean := 0.25
	if snap := s.stageSim.Snapshot(); snap.Count > 0 {
		mean = snap.Sum / float64(snap.Count)
	}
	secs := int(math.Ceil(float64(depth+1) * mean / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotCached):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// maxBodyBytes caps request bodies: the bounded queue limits request
// count, this limits request size, so one oversized payload can't bypass
// load shedding. 32 MiB comfortably fits six-figure-point inline instances.
const maxBodyBytes = 32 << 20

// maxBatchItems caps one batch: beyond it a disconnected client could pin
// the worker pool on abandoned work for a very long time.
const maxBatchItems = 4096

// handleServe is the handler of a solving endpoint (POST /v1/solve or
// /v1/portfolio): decode a Q, serve it under the request's trace identity,
// and write the outcome.
func handleServe[Q any](s *Service, solve func(*Service, TraceOpt, Q) (Solved, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		topt := s.traceIngress(r)
		var req Q
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			s.writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
			return
		}
		sv, err := solve(s, topt, req)
		s.writeSolved(w, sv, err)
	}
}

// writeSolved renders a Solve/SolvePortfolio outcome: the cached-or-cold
// canonical bytes with the X-Cache verdict and a Server-Timing stage
// breakdown, or the mapped error. Timing lives only in headers — the body
// is the canonical cached bytes, identical across hot and cold serves.
// Shed and errored requests get the Server-Timing header too (with
// cache;desc=shed|error), so a client can tell server-side rejection time
// from network time without a success.
func (s *Service) writeSolved(w http.ResponseWriter, sv Solved, err error) {
	w.Header().Set("Server-Timing", serverTiming(sv))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if sv.Hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Write(sv.Body)
}

// serverTiming renders a request's Server-Timing header value: the cache
// verdict as a descriptor, the stages that ran, the end-to-end total, and
// the trace ID (when the request has one) as a zero-duration entry — the
// cross-link into /tracez and the request log. Hits report resolve+total
// only (the other stages didn't run); coalesced requests report the
// in-flight run they joined.
func serverTiming(sv Solved) string {
	b := make([]byte, 0, 192)
	b = append(b, "cache;desc="...)
	b = append(b, sv.Outcome...)
	b = obs.AppendServerTiming(b, "resolve", sv.Resolve)
	if sv.queue > 0 || sv.Outcome == OutcomeMiss {
		b = obs.AppendServerTiming(b, "queue", sv.queue)
	}
	if sv.sim > 0 || sv.Outcome == OutcomeMiss {
		b = obs.AppendServerTiming(b, "sim", sv.sim)
	}
	if sv.repair > 0 {
		b = obs.AppendServerTiming(b, "repair", sv.repair)
	}
	if sv.marshal > 0 || sv.Outcome == OutcomeMiss {
		b = obs.AppendServerTiming(b, "marshal", sv.marshal)
	}
	b = obs.AppendServerTiming(b, "total", sv.Total)
	if sv.TraceID != "" {
		b = append(b, `, traceid;desc="`...)
		b = append(b, sv.TraceID...)
		b = append(b, '"')
	}
	return string(b)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if len(req.Requests) > maxBatchItems {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the %d-item limit", len(req.Requests), maxBatchItems))
		return
	}
	// Fan the batch out over the shared queue; identical items coalesce via
	// single-flight. Concurrency is bounded by the worker-pool size so a
	// large batch cannot fill the job queue and shed its own tail (or spawn
	// unbounded goroutines). Results land at their request's index, so the
	// reply is order-preserving no matter how the solves interleave.
	items := make([]BatchItem, len(req.Requests))
	bound := s.cfg.Workers
	if bound > s.cfg.QueueDepth {
		bound = s.cfg.QueueDepth
	}
	sem := make(chan struct{}, bound)
	var wg sync.WaitGroup
	for i, one := range req.Requests {
		// Stop fanning out once the client is gone; already-dispatched
		// items finish (their results are cached for a retry).
		if err := r.Context().Err(); err != nil {
			for j := i; j < len(req.Requests); j++ {
				items[j] = BatchItem{Error: "client disconnected before dispatch"}
			}
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, one SolveRequest) {
			defer func() { <-sem; wg.Done() }()
			sv, err := s.Solve(one)
			if err != nil {
				items[i] = BatchItem{Error: err.Error()}
				return
			}
			items[i] = BatchItem{Response: sv.Body}
		}(i, one)
	}
	wg.Wait()
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(BatchResponse{Results: items})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(append(body, '\n'))
}

func (s *Service) handleProbe(w http.ResponseWriter, r *http.Request) {
	body, ok := s.Probe(r.PathValue("hash"))
	if !ok {
		s.writeError(w, http.StatusNotFound, ErrNotCached)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(body)
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	events, err := s.TraceEvents(r.PathValue("hash"))
	if err != nil {
		s.writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	trace.WriteEventsNDJSON(w, events)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

func (s *Service) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(s.Stats())
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(append(body, '\n'))
}

// handleMetricsz renders the whole metric registry in Prometheus text
// exposition format 0.0.4. It is the scrape target; /statsz is a JSON
// convenience view over the same registry.
func (s *Service) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
	// Allocation-pressure gauges for load tooling (dftp-loadgen diffs these
	// across a load step to report GC cycles and bytes allocated alongside
	// its latency curves). Read directly per scrape rather than registered:
	// ReadMemStats is too expensive to sample on the request path, and
	// scrapes are rare.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP go_heap_alloc_bytes Live heap bytes.\n# TYPE go_heap_alloc_bytes gauge\ngo_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP go_alloc_bytes_total Cumulative bytes allocated on the heap.\n# TYPE go_alloc_bytes_total counter\ngo_alloc_bytes_total %d\n", ms.TotalAlloc)
}

// BuildInfo is the /buildz payload: enough to identify a running binary
// from the outside — toolchain, module version, VCS revision and dirtiness
// — plus how long this process has been up.
type BuildInfo struct {
	GoVersion     string  `json:"goVersion"`
	Module        string  `json:"module,omitempty"`
	ModuleVersion string  `json:"moduleVersion,omitempty"`
	Revision      string  `json:"revision,omitempty"`
	CommitTime    string  `json:"commitTime,omitempty"`
	Dirty         bool    `json:"dirty"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// readBuildInfo extracts the binary's embedded build identity — shared by
// GET /buildz and the dftp_build_info metric, so the two always agree.
func readBuildInfo() BuildInfo {
	var info BuildInfo
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.GoVersion = bi.GoVersion
		info.Module = bi.Main.Path
		info.ModuleVersion = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.Revision = kv.Value
			case "vcs.time":
				info.CommitTime = kv.Value
			case "vcs.modified":
				info.Dirty = kv.Value == "true"
			}
		}
	}
	return info
}

// handleBuildz reports build/version info from the binary's embedded build
// metadata. Fields missing from the build (e.g. VCS stamps in `go test`
// binaries) are omitted rather than faked.
func (s *Service) handleBuildz(w http.ResponseWriter, r *http.Request) {
	info := readBuildInfo()
	info.UptimeSeconds = time.Since(s.start).Seconds()
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(info)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Write(append(body, '\n'))
}
