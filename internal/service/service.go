// Package service turns the freeze-tag library into a long-running solver
// daemon: an HTTP/JSON API over a content-addressed result cache and a
// bounded job queue.
//
// Every request is canonically encoded and hashed (internal/instance); the
// hash keys an in-memory LRU of marshaled responses, so repeated requests —
// including duplicated and concurrent ones — are idempotent by construction:
// a cache hit returns bytes identical to the cold solve, concurrent
// identical requests coalesce into a single simulation (single-flight), and
// the bounded queue sheds excess load with ErrQueueFull (HTTP 429) instead
// of collapsing. The simulator is deterministic (PR 1), which is what makes
// caching sound: the cached result IS the result — and the portfolio racing
// engine (PR 3) keeps its responses deterministic too, so whole races cache
// the same way single solves do.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"freezetag/internal/arena"
	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/obs"
	"freezetag/internal/portfolio"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// ErrBadRequest tags request-resolution failures (unknown algorithm, bad
// family, missing instance); the HTTP layer maps it to 400.
var ErrBadRequest = errors.New("bad request")

// ErrQueueFull is returned when the job queue is at capacity; the HTTP
// layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("job queue full")

// ErrClosed is returned by Solve after Close.
var ErrClosed = errors.New("service closed")

// ErrNotCached is returned for a hash the result cache does not hold; the
// HTTP layer maps it to 404.
var ErrNotCached = errors.New("not cached")

// Config sizes a Service. Zero values select the defaults.
type Config struct {
	// Workers is the solver pool size (default GOMAXPROCS). It also bounds
	// each portfolio race's internal racing pool.
	Workers int
	// QueueDepth bounds the number of queued-but-unstarted solves
	// (default 64). A full queue sheds new work with ErrQueueFull.
	QueueDepth int
	// CacheBytes bounds the result cache by approximate retained bytes —
	// marshaled response + the replay inputs' instance + bookkeeping —
	// rather than entry count, so varied workloads with huge inline
	// instances and tiny ones share one memory budget (default 64 MiB).
	CacheBytes int64
	// Logger, when non-nil, receives one structured record per request
	// (request hash, outcome, per-stage durations) plus request failures.
	// Nil disables request logging entirely — the hot path then never
	// touches the logging machinery, which is what keeps instrumentation
	// inside the cold-solve benchmark's ≤2%/≤5-alloc overhead budget.
	Logger *slog.Logger
	// TraceBuffer sizes the /tracez flight recorder: the ring of completed
	// request traces kept for after-the-fact inspection. 0 selects the
	// default (256); negative disables request tracing entirely.
	TraceBuffer int
	// TraceSample is the probability that a fast, successful request's
	// trace is kept. Slow, errored, and shed requests are always kept
	// regardless. 0 selects the default (0.01); negative keeps only the
	// always-keep classes.
	TraceSample float64
	// TraceSlow is the always-keep threshold: a request whose total
	// latency reaches it is traced no matter what the sampler said.
	// 0 selects the default (250ms); negative disables the slow policy.
	TraceSlow time.Duration
	// memoSize bounds the request-shape → hash memo in entries (default
	// 4096; entries are two short strings).
	memoSize int
	// preSolve, when set (tests only), runs in the worker before each
	// simulation — used to hold workers and fill the queue.
	preSolve func()
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheBytes < 1 {
		c.CacheBytes = 64 << 20
	}
	if c.memoSize < 1 {
		c.memoSize = 4096
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.01
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = 250 * time.Millisecond
	}
	return c
}

// Solved is the outcome of a service solve.
type Solved struct {
	// Hash is the request's content-addressed key.
	Hash string
	// Body is the canonical marshaled SolveResponse (or PortfolioResponse).
	// Identical requests always receive identical bytes, cold or cached.
	Body []byte
	// Hit reports whether the solve was served without running a new
	// simulation (cache hit or coalesced into an in-flight one).
	Hit bool
	// Outcome classifies how the request was served: OutcomeHit,
	// OutcomeCoalesced, or OutcomeMiss.
	Outcome string
	// Stage durations of this request's wall-clock life, surfaced in the
	// Server-Timing response header and the structured request log — never
	// in Body, which stays byte-identical across hot and cold serves.
	// Total covers the whole call including synchronization. The embedded
	// stageTimes (queue, sim, marshal, and a traced race's racer
	// observations) are zero for cache hits, since those stages didn't run;
	// for coalesced requests they describe the in-flight run that was joined.
	Resolve time.Duration
	Total   time.Duration
	// TraceID is the request's trace identity when one exists: the inbound
	// ID for HTTP requests, or a minted one if the trace was kept. Empty
	// means the request was neither externally identified nor kept. It is
	// surfaced in Server-Timing and the request log, never in Body.
	TraceID string
	stageTimes
}

// job is one queued unit of work: a simulation, a whole portfolio race, or a
// trace replay, closed over by run. width is the job's effective admission
// weight: the number of worker slots its simulations can occupy at once (1
// for a solve or replay, min(k, Workers) for a k-entrant race, whose
// internal pool is clamped to Workers). run receives the call's stage clock
// so the worker-side stages (simulate, marshal) land next to the queue wait
// it measures itself. A replay has no hash and returns no entry.
type job struct {
	hash     string
	width    int
	enqueued time.Time
	call     *call
	// run executes the job on a worker. The arena is the executing worker's
	// per-slot scratch (reset between jobs, never shared): simulation jobs
	// check their whole engine out of it, so repeat shapes solve without
	// allocating. Jobs that can't use it (portfolio races run k engines on
	// racer goroutines) simply ignore it.
	run func(*stageTimes, *arena.Arena) (*entry, error)
}

// stageTimes is the worker-side half of a request's stage breakdown: the
// queue wait plus the run's simulate and marshal times. It lives on the
// single-flight call, written by the worker strictly before close(done) and
// read by waiters strictly after <-done, so no lock is needed.
type stageTimes struct {
	queue   time.Duration
	sim     time.Duration
	marshal time.Duration
	// racers is the run's per-racer observation list (portfolio runs with
	// tracing enabled only), sorted by entrant index. Like the durations
	// above it is written strictly before close(done).
	racers []portfolio.RacerObservation
}

// call is a single-flight slot: the first request for a hash creates it,
// concurrent duplicates wait on done and share the outcome (including the
// runner's stage timings — a coalesced request's Server-Timing reports the
// run it actually waited on).
type call struct {
	done chan struct{}
	ent  *entry
	err  error
	stageTimes
}

// Service is the solver daemon core. Create one with New, serve it over
// HTTP with Handler, and stop it with Close.
type Service struct {
	cfg   Config
	log   *slog.Logger
	start time.Time
	jobs  chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	cache    *lru[*entry]
	shapes   *lru[string]
	params   *lru[paramsMemo]
	inflight map[string]*call
	closed   bool
	// queueWeight is the admitted-but-uncompleted effective slot count
	// (widths of queued and running jobs). Admission sheds when it would
	// exceed QueueDepth+Workers, so a burst of wide portfolio races cannot
	// oversubscribe the host the way width-blind counting would.
	queueWeight int

	// reg is the flight recorder: every lifetime counter below lives in it,
	// so GET /metricsz and /statsz are two views of the same registry and
	// can never disagree. The pointers are resolved once at construction;
	// the hot path does a single atomic add per event.
	reg             *obs.Registry
	hits            *obs.Counter
	coalesced       *obs.Counter
	misses          *obs.Counter
	shed            *obs.Counter
	solves          *obs.Counter
	races           *obs.Counter
	racersCancelled *obs.Counter
	memoHits        *obs.Counter
	paramsMemoHits  *obs.Counter
	simSteps        *obs.Counter
	simLooks        *obs.Counter
	simMoves        *obs.Counter
	simWakes        *obs.Counter
	repairs         *obs.Counter
	evictions       *obs.Counter
	evictedBytes    *obs.Counter
	traceReplays    *obs.Counter
	// faultsInjected maps a fault kind to its dftp_faults_injected_total
	// series; kinds are a fixed set, preregistered like reqOutcomes.
	faultsInjected map[string]*obs.Counter
	// incompleteRuns and scheduleMisses map an Algorithm.Name() to its
	// dftp_incomplete_runs_total / dftp_schedule_misses_total series,
	// preregistered for every algorithm AlgorithmByName serves.
	incompleteRuns map[string]*obs.Counter
	scheduleMisses map[string]*obs.Counter

	// Per-stage latency histograms (seconds, power-of-two buckets ~1µs…32s)
	// plus end-to-end request histograms per endpoint.
	stageResolve *obs.Histogram
	stageQueue   *obs.Histogram
	stageSim     *obs.Histogram
	stageMarshal *obs.Histogram
	racerSim     *obs.Histogram
	racerCancel  *obs.Histogram
	// solveEP and portfolioEP label the two solving endpoints and hold
	// their end-to-end request histograms.
	solveEP, portfolioEP endpoint

	// reqOutcomes maps {endpoint, outcome} to its dftp_requests_total
	// series; keys are preregistered so the hot path is one comparable-key
	// map lookup, no allocation. shapeCounters is the lazily grown
	// {endpoint, algorithm, metric} family, capped to bound cardinality.
	reqOutcomes   map[epOutcome]*obs.Counter
	shapeMu       sync.RWMutex
	shapeCounters map[shapeLabels]*obs.Counter

	// traces is the /tracez flight recorder (nil when disabled); tracesKept
	// counts keeps by policy reason (slow / error / shed / sampled).
	traces     *obs.TraceStore
	tracesKept map[string]*obs.Counter
}

// endpoint is a solving endpoint's label and its end-to-end latency
// histogram.
type endpoint struct {
	name string
	dur  *obs.Histogram
}

// epOutcome keys a dftp_requests_total series.
type epOutcome struct{ endpoint, outcome string }

// shapeLabels keys a dftp_requests_by_shape_total series.
type shapeLabels struct{ endpoint, algorithm, metric string }

// Request outcome labels, also used as the X-Cache / Server-Timing cache
// descriptor and the structured-log outcome field.
const (
	OutcomeHit       = "hit"
	OutcomeCoalesced = "coalesced"
	OutcomeMiss      = "miss"
	OutcomeShed      = "shed"
	OutcomeError     = "error"
)

// histogram bucket range shared by all latency histograms: 2^-20s (~1µs)
// to 2^5s (32s) in octave steps.
const histMinExp, histMaxExp = -20, 5

// maxShapeSeries caps the lazily grown {endpoint, algorithm, metric}
// counter family. lp:<p> metrics are user-supplied and a portfolio's
// algorithm label embeds its seed, so without a cap a scanning client could
// grow the registry without bound; past the cap new shapes collapse into
// algorithm="other",metric="other", one series per endpoint.
const maxShapeSeries = 256

// New starts a Service with cfg's worker pool running.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		log:      cfg.Logger,
		start:    time.Now(),
		jobs:     make(chan *job, cfg.QueueDepth),
		shapes:   newMemoLRU(cfg.memoSize),
		params:   newParamsLRU(cfg.memoSize),
		inflight: make(map[string]*call),
	}
	s.cache = newLRU(cfg.CacheBytes, func(size int64) {
		s.evictions.Inc()
		s.evictedBytes.Add(size)
	})
	if cfg.TraceBuffer > 0 {
		s.traces = obs.NewTraceStore(cfg.TraceBuffer)
	}
	s.initObs()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// initObs builds the service's metric registry: one series per lifetime
// counter (the /statsz fields), per-stage and per-endpoint latency
// histograms, racer telemetry, simulator probe totals, and callback gauges
// over the live cache/queue state.
func (s *Service) initObs() {
	r := obs.NewRegistry()
	s.reg = r
	s.hits = r.Counter("dftp_cache_hits_total", "Requests served from the result cache.")
	s.coalesced = r.Counter("dftp_cache_coalesced_total", "Requests that joined an identical in-flight solve.")
	s.misses = r.Counter("dftp_cache_misses_total", "Requests that initiated a simulation.")
	s.shed = r.Counter("dftp_shed_total", "Requests rejected with queue-full (HTTP 429).")
	s.solves = r.Counter("dftp_solves_total", "Simulations actually run.")
	s.races = r.Counter("dftp_races_total", "Portfolio races actually run.")
	s.racersCancelled = r.Counter("dftp_racers_cancelled_total", "Losing racers cancelled by early-stop objectives.")
	s.memoHits = r.Counter("dftp_memo_hits_total", "Hits/coalesces served via the shape→hash memo.")
	s.paramsMemoHits = r.Counter("dftp_params_memo_hits_total", "Cold solves whose parameter derivation was served by the params memo.")
	s.simSteps = r.Counter("dftp_sim_steps_total", "Simulator event-loop dispatches across all completed runs.")
	s.simLooks = r.Counter("dftp_sim_looks_total", "Simulator Look snapshots across all completed runs.")
	s.simMoves = r.Counter("dftp_sim_moves_total", "Completed robot moves across all completed runs.")
	s.simWakes = r.Counter("dftp_sim_wakes_total", "Robots awakened across all completed runs.")
	s.evictions = r.Counter("dftp_cache_evictions_total", "Result-cache entries evicted by the byte budget.")
	s.evictedBytes = r.Counter("dftp_cache_evicted_bytes_total", "Approximate retained bytes of the evicted result-cache entries.")
	s.traceReplays = r.Counter("dftp_trace_replays_total", "GET /v1/trace requests admitted to re-simulate a cached run.")

	const stageHelp = "Per-stage request latency: resolve (validate + materialize + hash), queue (admission to worker pickup), sim (the simulation or whole race), marshal (response encoding)."
	s.stageResolve = r.Histogram("dftp_stage_duration_seconds", stageHelp, histMinExp, histMaxExp, obs.L("stage", "resolve"))
	s.stageQueue = r.Histogram("dftp_stage_duration_seconds", stageHelp, histMinExp, histMaxExp, obs.L("stage", "queue"))
	s.stageSim = r.Histogram("dftp_stage_duration_seconds", stageHelp, histMinExp, histMaxExp, obs.L("stage", "sim"))
	s.stageMarshal = r.Histogram("dftp_stage_duration_seconds", stageHelp, histMinExp, histMaxExp, obs.L("stage", "marshal"))

	s.repairs = r.Counter("dftp_repairs_total", "Wake-tree repair interventions (rescue dispatches and stalled-process releases) across all completed runs.")
	s.faultsInjected = make(map[string]*obs.Counter)
	for _, kind := range []string{"crash-stop", "crash-recovery", "wake-drop", "wake-dup", "byzantine", "roster-skip"} {
		s.faultsInjected[kind] = r.Counter("dftp_faults_injected_total",
			"Faults injected into completed runs, by kind (roster-skip counts tolerated stale-roster operations).",
			obs.L("kind", kind))
	}
	s.incompleteRuns = make(map[string]*obs.Counter)
	s.scheduleMisses = make(map[string]*obs.Counter)
	for _, a := range []dftp.Algorithm{dftp.AGrid{}, dftp.ASeparator{}, dftp.ASeparatorAuto{}, dftp.AWave{}} {
		s.incompleteRuns[a.Name()] = r.Counter("dftp_incomplete_runs_total",
			"Completed runs that left robots asleep (allAwake=false), by algorithm; a race counts its winner.",
			obs.L("algorithm", a.Name()))
		s.scheduleMisses[a.Name()] = r.Counter("dftp_schedule_misses_total",
			"Synchronization-deadline misses reported by completed runs, by algorithm; a race counts its winner.",
			obs.L("algorithm", a.Name()))
	}

	const durHelp = "End-to-end request latency by endpoint, cache hits included."
	s.solveEP = endpoint{"solve", r.Histogram("dftp_request_duration_seconds", durHelp, histMinExp, histMaxExp, obs.L("endpoint", "solve"))}
	s.portfolioEP = endpoint{"portfolio", r.Histogram("dftp_request_duration_seconds", durHelp, histMinExp, histMaxExp, obs.L("endpoint", "portfolio"))}

	s.racerSim = r.Histogram("dftp_racer_sim_seconds", "Per-racer simulation wall time inside portfolio races.", histMinExp, histMaxExp)
	s.racerCancel = r.Histogram("dftp_racer_cancel_latency_seconds", "Lag between a racer's cancellation firing and its simulation unwinding.", histMinExp, histMaxExp)

	s.reqOutcomes = make(map[epOutcome]*obs.Counter)
	for _, ep := range []string{"solve", "portfolio"} {
		for _, oc := range []string{OutcomeHit, OutcomeCoalesced, OutcomeMiss, OutcomeShed, OutcomeError} {
			s.reqOutcomes[epOutcome{ep, oc}] = r.Counter("dftp_requests_total",
				"Requests by endpoint and outcome.", obs.L("endpoint", ep), obs.L("outcome", oc))
		}
	}
	s.shapeCounters = make(map[shapeLabels]*obs.Counter)

	s.tracesKept = make(map[string]*obs.Counter)
	for _, reason := range []string{keepSlow, keepError, keepShed, keepSampled} {
		s.tracesKept[reason] = r.Counter("dftp_traces_kept_total",
			"Request traces kept in the /tracez flight recorder, by keep reason.", obs.L("reason", reason))
	}
	r.Gauge("dftp_trace_buffer_entries", "Traces currently held by the /tracez ring.", func() float64 {
		if s.traces == nil {
			return 0
		}
		return float64(s.traces.Len())
	})
	r.Gauge("dftp_trace_buffer_capacity", "Capacity of the /tracez trace ring (0 = tracing disabled).", func() float64 {
		if s.traces == nil {
			return 0
		}
		return float64(s.traces.Capacity())
	})

	// Build identity as a constant-1 info gauge, the Prometheus convention
	// for joining metrics against version labels.
	bi := readBuildInfo()
	revision := bi.Revision
	if revision == "" {
		revision = "unknown"
	}
	r.Gauge("dftp_build_info", "Build identity of the running binary (value is always 1).", func() float64 { return 1 },
		obs.L("goVersion", bi.GoVersion), obs.L("revision", revision),
		obs.L("modified", fmt.Sprintf("%t", bi.Dirty)))

	r.Gauge("dftp_queue_depth", "Jobs queued but not yet picked up by a worker.", func() float64 {
		return float64(len(s.jobs))
	})
	r.Gauge("dftp_queue_weight", "Admitted effective worker slots (width-weighted, queued + running).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queueWeight)
	})
	r.Gauge("dftp_inflight", "Distinct request hashes currently being solved.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.inflight))
	})
	r.Gauge("dftp_cache_entries", "Entries in the result cache.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.cache.len())
	})
	r.Gauge("dftp_cache_bytes", "Approximate bytes retained by the result cache.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.cache.total)
	})
	r.Gauge("dftp_cache_capacity_bytes", "Result cache byte budget.", func() float64 {
		return float64(s.cfg.CacheBytes)
	})
	r.Gauge("dftp_queue_capacity", "Job queue depth limit.", func() float64 {
		return float64(s.cfg.QueueDepth)
	})
	r.Gauge("dftp_workers", "Solver pool size.", func() float64 {
		return float64(s.cfg.Workers)
	})
	r.Gauge("dftp_uptime_seconds", "Seconds since the service was constructed.", func() float64 {
		return time.Since(s.start).Seconds()
	})
}

// Registry exposes the service's metric registry: GET /metricsz renders
// it, and /statsz reads the same counters, so the two views are generated
// from one source of truth.
func (s *Service) Registry() *obs.Registry { return s.reg }

// countShape bumps the {endpoint, algorithm, metric} request counter,
// creating the series on first sight. The fast path is a read-locked
// lookup with a comparable struct key — no allocation. Past maxShapeSeries
// distinct shapes, new shapes collapse into algorithm="other",
// metric="other" so hostile or scanning clients cannot grow the registry
// without bound.
func (s *Service) countShape(endpoint, algorithm, metric string) {
	key := shapeLabels{endpoint, algorithm, metric}
	s.shapeMu.RLock()
	c := s.shapeCounters[key]
	s.shapeMu.RUnlock()
	if c != nil {
		c.Inc()
		return
	}
	s.shapeMu.Lock()
	if c = s.shapeCounters[key]; c == nil {
		if len(s.shapeCounters) >= maxShapeSeries {
			key = shapeLabels{endpoint, "other", "other"}
			c = s.shapeCounters[key]
		}
		if c == nil {
			c = s.reg.Counter("dftp_requests_by_shape_total",
				"Requests by endpoint, algorithm, and metric (new shapes collapse to \"other\" past the cardinality cap).",
				obs.L("endpoint", key.endpoint), obs.L("algorithm", key.algorithm), obs.L("metric", key.metric))
			s.shapeCounters[key] = c
		}
	}
	s.shapeMu.Unlock()
	c.Inc()
}

// observeRacer is the portfolio race's telemetry sink: per-racer wall time
// and, for racers stopped mid-run, cancellation latency.
func (s *Service) observeRacer(ob portfolio.RacerObservation) {
	if ob.Wall > 0 {
		s.racerSim.Record(ob.Wall.Seconds())
	}
	if ob.CancelLatency > 0 {
		s.racerCancel.Record(ob.CancelLatency.Seconds())
	}
}

// logRequest emits one structured record per request when logging is
// enabled. Errors log at Warn with the error attached; successes at Info
// with the full stage breakdown. The trace ID (when the request has one)
// and the client's X-Request-ID land on every record, so one grep joins a
// log line, its /tracez trace, and the client's own logs.
func (s *Service) logRequest(endpoint string, sv Solved, topt TraceOpt, err error) {
	if s.log == nil {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs, slog.String("endpoint", endpoint))
	level := slog.LevelInfo
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs,
			slog.String("outcome", sv.Outcome),
			slog.Duration("total", sv.Total),
			slog.String("error", err.Error()))
	} else {
		attrs = append(attrs,
			slog.String("hash", sv.Hash),
			slog.String("outcome", sv.Outcome),
			slog.Duration("total", sv.Total),
			slog.Duration("resolve", sv.Resolve),
			slog.Duration("queue", sv.queue),
			slog.Duration("sim", sv.sim),
			slog.Duration("marshal", sv.marshal))
	}
	if sv.TraceID != "" {
		attrs = append(attrs, slog.String("trace", sv.TraceID))
	}
	if topt.RequestID != "" {
		attrs = append(attrs, slog.String("requestId", topt.RequestID))
	}
	s.log.LogAttrs(context.Background(), level, "request", attrs...)
}

// Close drains the queue, stops the workers, and fails subsequent Solves
// with ErrClosed. Queued jobs still complete.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.jobs)
	s.wg.Wait()
}

// parseMetric resolves a request's metric spelling, wrapping rejections —
// unknown names, degenerate exponents like lp:0 or lp:NaN — in ErrBadRequest
// so the HTTP layer answers 400 instead of silently defaulting.
func parseMetric(s string) (geom.Metric, error) {
	m, err := geom.ParseMetric(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return m, nil
}

// resolved is a request after validation: metric, instance, tuple, budget,
// faults, and the content hash they and the solver's name determine. A cache
// entry keeps it, with alg set to the algorithm whose run produced the body
// (for a race, the winner, and faults its draw), as the recipe that
// re-simulates the run.
type resolved struct {
	hash   string
	alg    dftp.Algorithm
	metric geom.Metric
	inst   *instance.Instance
	tup    dftp.Tuple
	budget float64
	faults *dftp.Faults
}

// resolve materializes req under the (already validated) metric m and
// computes its hash under the solver name: inline instance wins over
// family, the tuple defaults to dftp.TupleForIn(m, instance), budgets ≤ 0
// collapse to 0. Request-level profiles override whatever profiles the
// inline instance or family modifiers supplied, and the combined instance
// is validated (coordinates finite and within ±instance.MaxCoord, speeds
// finite and > 0, one profile per robot) before a family instance enters
// the params memo. All failures wrap ErrBadRequest.
//
// Family instances and their derived tuples are memoized under paramsKey:
// the derivation walks the whole point set (ℓ* and ρ*; the tuple needs no
// ξ), and the same family shape recurs across algorithms, objectives, and
// budgets — all of which change the content hash but not the instance.
// Profiles never affect the derivation either — ℓ* and ρ* are pure
// geometry — so the memo is profile-blind by construction. A memo hit turns
// the cold path's generation and parameter derivation into a map lookup
// (paramsMemoHits in /statsz). Inline instances skip the memo and derive on
// every request, cache hits included.
func (s *Service) resolve(name string, m geom.Metric, req *SolveRequest) (resolved, error) {
	r := resolved{metric: m, inst: req.Instance, faults: req.Faults}
	var memoKey []byte
	var memoHit bool
	var famInst *instance.Instance
	if r.inst == nil {
		if req.Family == "" {
			return r, fmt.Errorf("%w: request needs an inline instance or a family", ErrBadRequest)
		}
		// Memo-first: the memoized instance is the pristine generator output
		// — request profiles are applied copy-on-write below, never to the
		// shared pointer.
		var pkb [96]byte
		memoKey, _ = paramsKey(pkb[:0], m, req)
		s.mu.Lock()
		memo, hit := s.params.getBytes(memoKey)
		s.mu.Unlock()
		if memoHit = hit; hit {
			r.inst, r.tup = memo.inst, memo.tup
		} else {
			inst, err := instance.Family(req.Family, req.N, req.Param, req.Seed)
			if err != nil {
				return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			r.inst, famInst = inst, inst
		}
	} else if len(r.inst.Points) == 0 {
		return r, fmt.Errorf("%w: inline instance has no points", ErrBadRequest)
	}
	if len(req.Profiles) > 0 {
		// Copy-on-write: never mutate the caller's inline instance.
		cp := *r.inst
		cp.Profiles = req.Profiles
		r.inst = &cp
	}
	if err := r.inst.Validate(); err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	switch {
	case req.Tuple != nil:
		r.tup = dftp.Tuple{Ell: req.Tuple.Ell, Rho: req.Tuple.Rho, N: req.Tuple.N}
		if !r.tup.Admissible() {
			return r, fmt.Errorf("%w: tuple (ℓ=%g, ρ=%g, n=%d) is not admissible (need 0 < ℓ ≤ ρ ≤ nℓ)",
				ErrBadRequest, r.tup.Ell, r.tup.Rho, r.tup.N)
		}
	case memoHit:
		s.paramsMemoHits.Add(1)
	default:
		r.tup = dftp.TupleForIn(m, r.inst)
		if famInst != nil {
			s.mu.Lock()
			s.params.add(string(memoKey), paramsMemo{tup: r.tup, inst: famInst})
			s.mu.Unlock()
		}
	}
	if r.budget = req.Budget; r.budget < 0 {
		r.budget = 0
	}
	r.hash = instance.HashRequestFaulted(m, name, r.inst, r.tup.Ell, r.tup.Rho, r.tup.N, r.budget, req.Faults.Canon())
	return r, nil
}

// Key builders append into a caller-provided buffer (typically a stack
// array) so the steady-state probe path — build key, getBytes — allocates
// nothing; the key is materialized as a string only when it is actually
// stored. appendLower is an ASCII strings.ToLower: family names are ASCII by
// construction (non-ASCII spellings fail family validation before any key is
// ever stored, so their keys can never be observed).
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// paramsKey is the params-memo key of a family-generated request: the
// scalars that determine the generated point set, plus the metric the
// parameters are measured in. Algorithm, objective, and budget are
// deliberately absent — they don't affect the derivation. Inline instances
// are not memoized (deriving their key would walk the points, which is the
// work the memo saves).
func paramsKey(b []byte, m geom.Metric, req *SolveRequest) ([]byte, bool) {
	if req.Instance != nil || req.Family == "" {
		return nil, false
	}
	b = append(b, geom.MetricOrL2(m).Name()...)
	b = append(b, '|')
	b = appendLower(b, req.Family)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.N), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(req.Param), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, req.Seed, 10)
	return b, true
}

// shapeKey is the shape-memo key of a family-generated request: the solver
// name and paramsKey, then every other scalar that determines the content
// hash — budget, tuple, request-level profiles, and the fault specification
// — without materializing the instance. Inline instances are not memoized
// (their hash already requires walking the points, so there is nothing to
// save). Family-modifier profiles need no extra key material: they are a
// deterministic function of the family string, which is already in the key.
func shapeKey(b []byte, name string, m geom.Metric, req *SolveRequest) ([]byte, bool) {
	b, ok := paramsKey(append(append(b, name...), '|'), m, req)
	if !ok {
		return nil, false
	}
	budget := req.Budget
	if budget <= 0 {
		budget = 0
	}
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(budget), 16)
	if t := req.Tuple; t != nil {
		b = append(b, "|t"...)
		b = strconv.AppendUint(b, math.Float64bits(t.Ell), 16)
		b = append(b, ',')
		b = strconv.AppendUint(b, math.Float64bits(t.Rho), 16)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.N), 10)
	}
	for _, p := range req.Profiles {
		cap := p.Capacity
		if cap <= 0 {
			cap = 0 // same normalization as the canonical encoding
		}
		b = append(b, "|f"...)
		b = strconv.AppendUint(b, math.Float64bits(p.Speed), 16)
		b = append(b, ',')
		b = strconv.AppendUint(b, math.Float64bits(cap), 16)
	}
	if req.Faults != nil {
		// Without this line, a faulted and a fault-free request of the same
		// shape would alias to one memo entry and serve each other's bytes.
		b = append(b, "|x"...)
		b = append(b, req.Faults.Canon()...)
	}
	return b, true
}

// maxPortfolioAlgorithms caps one race's entrant list (duplicates are legal
// but each entrant is a full simulation): without it a single small request
// could queue unbounded work in one worker slot, the same hole
// maxBatchItems closes for /v1/batch.
const maxPortfolioAlgorithms = 16

// portfolioFor validates the algorithms/objective/seed half of a portfolio
// request, including that an under-faults objective comes with a faults
// specification. It is cheap (no instance generation), so the memo fast
// path can call it to derive the canonical descriptor.
func portfolioFor(req PortfolioRequest) (portfolio.Portfolio, error) {
	var pf portfolio.Portfolio
	if len(req.Algorithms) == 0 {
		return pf, fmt.Errorf("%w: portfolio needs at least one algorithm", ErrBadRequest)
	}
	if len(req.Algorithms) > maxPortfolioAlgorithms {
		return pf, fmt.Errorf("%w: portfolio of %d algorithms exceeds the %d-entrant limit",
			ErrBadRequest, len(req.Algorithms), maxPortfolioAlgorithms)
	}
	algs := make([]dftp.Algorithm, len(req.Algorithms))
	for i, name := range req.Algorithms {
		alg, err := AlgorithmByName(name)
		if err != nil {
			return pf, err
		}
		algs[i] = alg
	}
	obj, err := portfolio.ParseObjective(req.Objective)
	if err != nil {
		return pf, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if _, uf := obj.(portfolio.UnderFaults); uf && req.Faults == nil {
		return pf, fmt.Errorf("%w: objective %q needs a faults specification", ErrBadRequest, obj.Name())
	}
	return portfolio.Portfolio{Algorithms: algs, Objective: obj, Seed: req.Seed}, nil
}

// Solve serves one request: from the cache when possible, by joining an
// identical in-flight solve otherwise, and by queueing a new simulation as
// the last resort. It blocks until the result is available. Errors:
// ErrBadRequest (invalid request), ErrQueueFull (load shed), ErrClosed, or
// a simulation failure.
func (s *Service) Solve(req SolveRequest) (Solved, error) {
	return s.solveTraced(TraceOpt{}, req)
}

// solveTraced is Solve with a transport-layer trace identity: the HTTP
// handler parses traceparent / X-Request-ID and rolls the sampling die
// once, then passes the verdict down here.
func (s *Service) solveTraced(topt TraceOpt, req SolveRequest) (Solved, error) {
	sp := obs.StartSpan()
	alg, err := AlgorithmByName(req.Algorithm)
	return serve(s, s.solveEP, topt, &sp, single{alg}, err, &req)
}

// SolvePortfolio serves one portfolio race with the same cache-first /
// single-flight / bounded-queue semantics as Solve. The race itself runs k
// simulations concurrently inside one worker slot (its racing pool is
// bounded by Config.Workers); because race outcomes are deterministic at
// any worker count, the response is cacheable exactly like a single solve.
func (s *Service) SolvePortfolio(req PortfolioRequest) (Solved, error) {
	return s.portfolioTraced(TraceOpt{}, req)
}

// portfolioTraced is SolvePortfolio with a transport-layer trace identity
// (see solveTraced). Kept portfolio traces carry per-racer child spans.
func (s *Service) portfolioTraced(topt TraceOpt, req PortfolioRequest) (Solved, error) {
	sp := obs.StartSpan()
	pf, err := portfolioFor(req)
	sreq := req.solveRequest()
	return serve(s, s.portfolioEP, topt, &sp, race{pf}, err, &sreq)
}

// solver is the half of a request the pipeline in serve does not share:
// single runs one algorithm, race races a portfolio. Name is the canonical
// descriptor hashed into the request key; width is the job's admission
// weight for a pool of the given size; run simulates the resolved request
// on a worker and returns the (winning) run's result and report, the
// response to marshal, and the recipe the cache keeps to replay the run.
type solver interface {
	Name() string
	width(workers int) int
	run(s *Service, ts *stageTimes, ar *arena.Arena, r resolved) (sim.Result, *dftp.Report, any, resolved, error)
}

// single is the solver of POST /v1/solve: one algorithm, simulated on the
// executing worker's arena.
type single struct{ dftp.Algorithm }

func (single) width(int) int { return 1 }

func (a single) run(s *Service, _ *stageTimes, ar *arena.Arena, r resolved) (sim.Result, *dftp.Report, any, resolved, error) {
	res, rep, err := dftp.SolveFaulted(context.Background(), ar, r.metric, a.Algorithm, r.inst, r.tup, r.budget, r.faults, nil)
	s.solves.Add(1)
	if err != nil {
		return res, nil, nil, r, err
	}
	out := NewSolveResponse(r.hash, a.Algorithm, r.metric, r.inst, r.tup, r.budget, res, rep)
	out.Faults = NewFaultsEcho(r.faults, res, r.inst.N())
	r.alg = a.Algorithm
	return res, rep, out, r, nil
}

// race is the solver of POST /v1/portfolio: the portfolio's entrants raced
// inside one worker slot. The race builds its own engines on racer
// goroutines, so it ignores the worker arena.
type race struct{ portfolio.Portfolio }

// width is min(k, workers): a k-entrant race runs that many simulations at
// once inside its slot, and admission counts them so a burst of races
// cannot oversubscribe the host.
func (p race) width(workers int) int { return min(len(p.Algorithms), workers) }

func (p race) run(s *Service, ts *stageTimes, _ *arena.Arena, r resolved) (sim.Result, *dftp.Report, any, resolved, error) {
	// With tracing enabled, tee the race's observations into the call so
	// kept traces get per-racer child spans. Observe runs from racer
	// goroutines, hence the mutex; the final sorted slice is published via
	// ts before close(done) like the stage durations.
	observe := s.observeRacer
	var rmu sync.Mutex
	var racerObs []portfolio.RacerObservation
	if s.traces != nil {
		observe = func(ob portfolio.RacerObservation) {
			s.observeRacer(ob)
			rmu.Lock()
			racerObs = append(racerObs, ob)
			rmu.Unlock()
		}
	}
	res, err := portfolio.Race(p.Portfolio, r.inst, r.tup, r.budget,
		portfolio.Options{Workers: s.cfg.Workers, Metric: r.metric, Observe: observe, Faults: r.faults})
	// Race joined all racer goroutines before returning, so racerObs is
	// complete and safe to read without the mutex here.
	if len(racerObs) > 0 {
		sort.Slice(racerObs, func(i, j int) bool { return racerObs[i].Index < racerObs[j].Index })
		ts.racers = racerObs
	}
	s.races.Add(1)
	if err != nil {
		return sim.Result{}, nil, nil, r, err
	}
	s.solves.Add(int64(len(p.Algorithms) - res.Aborted))
	s.racersCancelled.Add(int64(res.Cancelled))
	out := NewPortfolioResponse(r.hash, p.Portfolio, r.metric, r.inst, r.tup, r.budget, res)
	out.Faults = NewFaultsEcho(r.faults, res.Res, r.inst.N())
	// The winner's run is the race's trace: keep its recipe. Only that run's
	// full sim.Result survives the race (losers are summarized into
	// RacerResult scalars), so probe totals count winner work only.
	r.alg, r.faults = p.Algorithms[res.Winner], res.WinnerFaults
	return res.Res, res.Rep, out, r, nil
}

// serve is the one request pipeline behind Solve and SolvePortfolio. It
// validates the metric and fault spec (err carries the caller's parse of the
// solver half, timed by sp like the rest of resolve), counts the request's
// shape, and serves a memoized shape from the cache or an in-flight run
// without materializing the instance; otherwise it resolves the request,
// starts or joins its run, and closes the request out with finish. The run
// is sol's simulation followed by the stage clocks, probe totals and
// marshal every request shares.
//
// S is a type parameter rather than an interface argument so the solver is
// never boxed: the cache-hit path stays allocation-free.
func serve[S solver](s *Service, ep endpoint, topt TraceOpt, sp *obs.Span, sol S, err error, req *SolveRequest) (Solved, error) {
	var m geom.Metric
	if err == nil {
		m, err = parseMetric(req.Metric)
	}
	if err == nil {
		if err = req.Faults.Validate(); err != nil {
			err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	if err != nil {
		return s.finish(ep, Solved{Resolve: sp.Mark()}, sp, topt, err)
	}
	name := sol.Name()
	s.countShape(ep.name, name, geom.MetricOrL2(m).Name())
	var kb [128]byte
	key, keyed := shapeKey(kb[:0], name, m, req)
	if keyed {
		if sv, handled, err := s.memoLookup(key); handled {
			sv.Resolve = sp.Mark()
			return s.finish(ep, sv, sp, topt, err)
		}
	}
	r, err := s.resolve(name, m, req)
	resolveDur := sp.Mark()
	if err != nil {
		return s.finish(ep, Solved{Resolve: resolveDur}, sp, topt, err)
	}
	sv, err := s.startOrJoin(r.hash, string(key), sol.width(s.cfg.Workers), func(ts *stageTimes, ar *arena.Arena) (*entry, error) {
		rsp := obs.StartSpan()
		res, rep, out, in, err := sol.run(s, ts, ar, r)
		ts.sim = rsp.Mark()
		s.stageSim.Record(ts.sim.Seconds())
		if err != nil {
			return nil, err
		}
		s.recordSimProbes(in.alg.Name(), res, rep)
		body, err := json.Marshal(out)
		ts.marshal = rsp.Mark()
		s.stageMarshal.Record(ts.marshal.Seconds())
		if err != nil {
			return nil, err
		}
		return (&entry{body: body, in: in}).sized(), nil
	})
	sv.Resolve = resolveDur
	return s.finish(ep, sv, sp, topt, err)
}

// recordSimProbes folds one completed run of algorithm alg — its event-loop
// probe counters and its correctness signals — into the registry totals.
func (s *Service) recordSimProbes(alg string, res sim.Result, rep *dftp.Report) {
	s.simSteps.Add(res.Steps)
	s.simLooks.Add(res.Looks)
	s.simMoves.Add(res.Moves)
	s.simWakes.Add(int64(res.Awakened))
	if !res.AllAwake {
		s.incompleteRuns[alg].Inc()
	}
	s.scheduleMisses[alg].Add(int64(len(rep.Misses)))
	if f := res.Faults; f.Injected() != 0 || f.RosterSkips != 0 || f.Repairs != 0 {
		s.faultsInjected["crash-stop"].Add(f.CrashStops)
		s.faultsInjected["crash-recovery"].Add(f.Recoveries)
		s.faultsInjected["wake-drop"].Add(f.WakeDrops)
		s.faultsInjected["wake-dup"].Add(f.WakeDups)
		s.faultsInjected["byzantine"].Add(f.ByzTakeovers)
		s.faultsInjected["roster-skip"].Add(f.RosterSkips)
		s.repairs.Add(f.Repairs)
	}
}

// finish closes out one request: it records the resolve-stage and
// endpoint-latency histograms and the outcome counter, emits the
// structured log record, and stamps the total onto the Solved for the
// HTTP layer's Server-Timing header. sv.Resolve must already be set by
// the caller (marked when resolution — validation, memo lookup or full
// instance materialization — actually finished). With the outcome and
// total known it also applies the trace keep policy: the unkept path adds
// nothing to the cold solve — no allocation, two comparisons.
func (s *Service) finish(ep endpoint, sv Solved, sp *obs.Span, topt TraceOpt, err error) (Solved, error) {
	s.stageResolve.Record(sv.Resolve.Seconds())
	sv.Total = sp.Total()
	ep.dur.Record(sv.Total.Seconds())
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			sv.Outcome = OutcomeShed
		default:
			sv.Outcome = OutcomeError
		}
	}
	if c := s.reqOutcomes[epOutcome{ep.name, sv.Outcome}]; c != nil {
		c.Inc()
	}
	sv.TraceID = topt.ID
	s.recordTrace(ep.name, &sv, sp, topt, err)
	s.logRequest(ep.name, sv, topt, err)
	return sv, err
}

// memoLookup serves a request whose shape key is already memoized: a cache
// hit or an in-flight join, without materializing the instance. handled is
// false when the caller must fall back to full resolution (unknown shape,
// or known shape whose result has been evicted).
func (s *Service) memoLookup(key []byte) (sv Solved, handled bool, err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Solved{}, true, ErrClosed
	}
	if hash, ok := s.shapes.getBytes(key); ok {
		if sv, ok, err := s.joinLocked(hash); ok {
			if err == nil {
				s.memoHits.Add(1)
			}
			return sv, true, err
		}
	}
	s.mu.Unlock()
	return Solved{}, false, nil
}

// joinLocked serves hash from the cache or by waiting on its in-flight run.
// It is called with s.mu held and releases it when it reports found; when
// neither has the hash the lock stays held for the caller.
func (s *Service) joinLocked(hash string) (sv Solved, found bool, err error) {
	if e, ok := s.cache.get(hash); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return Solved{Hash: hash, Body: e.body, Hit: true, Outcome: OutcomeHit}, true, nil
	}
	c, ok := s.inflight[hash]
	if !ok {
		return Solved{}, false, nil
	}
	s.mu.Unlock()
	<-c.done
	if c.err != nil {
		return Solved{}, true, c.err
	}
	// Count only successful coalesces, so hitRate never credits requests
	// that were actually served an error.
	s.coalesced.Add(1)
	return c.served(hash, OutcomeCoalesced), true, nil
}

// served is the Solved of a request that waited on the finished call c: the
// run's body and the stage times of the run it waited on.
func (c *call) served(hash, outcome string) Solved {
	return Solved{Hash: hash, Body: c.ent.body, Hit: outcome != OutcomeMiss, Outcome: outcome, stageTimes: c.stageTimes}
}

// enqueueLocked admits j under the width-weighted cap and queues it; s.mu
// must be held. A full queue sheds the job with ErrQueueFull, counted in
// dftp_shed_total whether the job is a solve, a race or a trace replay.
func (s *Service) enqueueLocked(j *job) error {
	if s.queueWeight+j.width <= s.cfg.QueueDepth+s.cfg.Workers {
		j.enqueued = time.Now()
		select {
		case s.jobs <- j:
			s.queueWeight += j.width
			return nil
		default:
		}
	}
	s.shed.Add(1)
	return ErrQueueFull
}

// startOrJoin is the cache-first core of serve: serve the hash from the
// cache, join an identical in-flight job, or queue run as a new job of the
// given admission width (≥ 1). memoKey, when non-empty, is recorded so
// future requests of the same shape skip instance materialization.
//
// Admission is width-weighted: the sum of admitted-but-uncompleted widths is
// capped at QueueDepth+Workers (exactly the old queued+running limit when
// every job has width 1), so k-entrant races reserve k effective slots and
// shed under load like k solves would.
func (s *Service) startOrJoin(hash, memoKey string, width int, run func(*stageTimes, *arena.Arena) (*entry, error)) (Solved, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Solved{}, ErrClosed
	}
	if memoKey != "" {
		s.shapes.add(memoKey, hash)
	}
	if sv, ok, err := s.joinLocked(hash); ok {
		return sv, err
	}
	c := &call{done: make(chan struct{})}
	if err := s.enqueueLocked(&job{hash: hash, width: width, call: c, run: run}); err != nil {
		s.mu.Unlock()
		return Solved{}, err
	}
	s.inflight[hash] = c
	s.mu.Unlock()
	s.misses.Add(1)

	<-c.done
	if c.err != nil {
		return Solved{}, c.err
	}
	return c.served(hash, OutcomeMiss), nil
}

// worker runs queued jobs, stores the marshaled response in the cache, and
// releases the single-flight waiters. Each worker owns one arena for its
// whole life: the simulation substrate inside it is built by the first job
// and reset — not reallocated — by every following one.
func (s *Service) worker() {
	defer s.wg.Done()
	ar := arena.New("worker")
	defer ar.Close()
	for j := range s.jobs {
		if s.cfg.preSolve != nil {
			s.cfg.preSolve()
		}
		j.call.queue = time.Since(j.enqueued)
		s.stageQueue.Record(j.call.queue.Seconds())
		ent, err := j.run(&j.call.stageTimes, ar)
		s.mu.Lock()
		if ent != nil {
			s.cache.add(j.hash, ent)
		}
		delete(s.inflight, j.hash)
		s.queueWeight -= j.width
		s.mu.Unlock()
		j.call.ent, j.call.err = ent, err
		close(j.call.done)
	}
}

// Probe returns the cached response bytes for a hash, if present. It never
// triggers a solve.
func (s *Service) Probe(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cache.get(hash)
	if !ok {
		return nil, false
	}
	return e.body, true
}

// TraceEvents returns the event stream of the run behind a cached hash. The
// cache keeps a run's inputs rather than its events, and a run is a pure
// function of its inputs, so the run is simulated again: a width-1 job
// admitted and queued like a solve. Errors: ErrNotCached for a hash the cache
// does not hold, ErrQueueFull, ErrClosed, or a simulation failure.
func (s *Service) TraceEvents(hash string) ([]sim.Event, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := s.cache.get(hash)
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotCached
	}
	in := e.in
	rec := trace.New()
	c := &call{done: make(chan struct{})}
	err := s.enqueueLocked(&job{width: 1, call: c, run: func(_ *stageTimes, ar *arena.Arena) (*entry, error) {
		_, _, err := dftp.SolveFaulted(context.Background(), ar, in.metric, in.alg, in.inst, in.tup, in.budget, in.faults, rec.Record)
		return nil, err
	}})
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.traceReplays.Inc()
	<-c.done
	if c.err != nil {
		return nil, c.err
	}
	return rec.Events(), nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	cacheLen := s.cache.len()
	cacheBytes := s.cache.total
	queueWeight := s.queueWeight
	s.mu.Unlock()
	st := Stats{
		Hits:            s.hits.Load(),
		Coalesced:       s.coalesced.Load(),
		Misses:          s.misses.Load(),
		Shed:            s.shed.Load(),
		Solves:          s.solves.Load(),
		Races:           s.races.Load(),
		RacersCancelled: s.racersCancelled.Load(),
		MemoHits:        s.memoHits.Load(),
		ParamsMemoHits:  s.paramsMemoHits.Load(),
		QueueDepth:      len(s.jobs),
		QueueCapacity:   s.cfg.QueueDepth,
		QueueWeight:     queueWeight,
		AdmissionCap:    s.cfg.QueueDepth + s.cfg.Workers,
		CacheLen:        cacheLen,
		CacheBytes:      cacheBytes,
		CacheCapacity:   s.cfg.CacheBytes,
		Evictions:       s.evictions.Load(),
		EvictedBytes:    s.evictedBytes.Load(),
		Workers:         s.cfg.Workers,
	}
	for _, c := range s.tracesKept {
		st.TracesKept += c.Load()
	}
	// Derived ratios: zero-denominator cases are exactly 0, never NaN —
	// json.Marshal rejects NaN, so a fresh server's /statsz must not divide.
	lookups := st.Hits + st.Coalesced + st.Misses
	if lookups > 0 {
		st.HitRate = float64(st.Hits+st.Coalesced) / float64(lookups)
	}
	if served := st.Hits + st.Coalesced; served > 0 {
		st.MemoHitRate = float64(st.MemoHits) / float64(served)
	}
	if seen := lookups + st.Shed; seen > 0 {
		st.ShedRate = float64(st.Shed) / float64(seen)
	}
	return st
}
