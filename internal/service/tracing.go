// Per-request tracing: every HTTP request gets a trace ID (inbound W3C
// traceparent or X-Request-ID, minted otherwise), its resolve → queue →
// sim → marshal stages become a timestamped trace with child spans and
// events, and completed traces land in a fixed-capacity ring buffer
// (obs.TraceStore) served by GET /tracez.
//
// The keep policy is the whole design: slow, errored, and shed requests
// are ALWAYS kept (they are the ones worth explaining after the fact),
// everything else is kept with probability Config.TraceSample. Unkept
// requests never touch the store and never allocate — the stage data they
// would have contributed already lives on the caller's stack in the
// obs.Span the service keeps for histograms, preserving the cold-path
// zero-extra-allocation contract from the instrumentation PR.
package service

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"time"

	"freezetag/internal/obs"
)

// TraceOpt carries a request's trace identity, decided at the transport
// layer before the service sees the request. The zero value is valid:
// direct API callers (tests, benchmarks, batch items) pass TraceOpt{} and
// still get always-keep tracing for slow/errored/shed requests, with an
// ID minted lazily at keep time.
type TraceOpt struct {
	// ID is the trace ID: the inbound W3C traceparent trace-id, the
	// client's X-Request-ID, or a minted 16-byte hex ID. Empty means
	// "mint one only if the trace is kept".
	ID string
	// RequestID is the client-supplied X-Request-ID, echoed on the
	// response and attached to the structured request log so client and
	// server logs join on one key. Empty when the client sent none.
	RequestID string
	// Sampled marks the request pre-selected by probabilistic sampling
	// (or by an inbound traceparent sampled flag): its trace is kept even
	// if fast and successful.
	Sampled bool
}

// traceIngress derives a request's trace identity from its headers: a
// valid W3C traceparent wins (its sampled flag is honored), then a
// client-supplied X-Request-ID, then a minted ID — so every HTTP request
// has a trace ID, and the one in the response's Server-Timing header is
// the one a client can look up in /tracez and grep in the request log.
func (s *Service) traceIngress(r *http.Request) TraceOpt {
	var topt TraceOpt
	if id, sampled, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		topt.ID, topt.Sampled = id, sampled
	}
	if rid := sanitizeRequestID(r.Header.Get("X-Request-ID")); rid != "" {
		topt.RequestID = rid
		if topt.ID == "" {
			topt.ID = rid
		}
	}
	if topt.ID == "" {
		topt.ID = obs.NewTraceID()
	}
	if !topt.Sampled && s.cfg.TraceSample > 0 {
		topt.Sampled = rand.Float64() < s.cfg.TraceSample
	}
	return topt
}

// sanitizeRequestID accepts a client request ID only when it is safe to
// reflect into response headers, Server-Timing values, and log lines:
// 1–128 chars of a conservative token alphabet. Anything else is treated
// as absent rather than escaped — the ID's job is correlation, and an ID
// that needs escaping would corrupt the very greps it exists for.
func sanitizeRequestID(v string) string {
	if v == "" || len(v) > 128 {
		return ""
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':' || c == '/' || c == '+' || c == '=' || c == '@':
		default:
			return ""
		}
	}
	return v
}

// Trace-keep policy reasons, the label values of dftp_traces_kept_total.
const (
	keepSlow    = "slow"
	keepError   = "error"
	keepShed    = "shed"
	keepSampled = "sampled"
)

// recordTrace applies the keep policy to one finished request and, when it
// keeps, assembles the trace and adds it to the ring. It runs inside
// finish, after the outcome is known — always-keep-slow needs the total.
// The unkept path returns without allocating.
func (s *Service) recordTrace(endpoint string, sv *Solved, sp *obs.Span, topt TraceOpt, err error) {
	if s.traces == nil {
		return
	}
	slow := s.cfg.TraceSlow > 0 && sv.Total >= s.cfg.TraceSlow
	var reason string
	switch {
	case sv.Outcome == OutcomeError:
		reason = keepError
	case sv.Outcome == OutcomeShed:
		reason = keepShed
	case slow:
		reason = keepSlow
	case topt.Sampled:
		reason = keepSampled
	default:
		return
	}
	if sv.TraceID == "" {
		sv.TraceID = obs.NewTraceID()
	}
	t := &obs.Trace{
		ID:      sv.TraceID,
		Name:    endpoint,
		Outcome: sv.Outcome,
		Start:   sp.Begin(),
		Total:   sv.Total,
		Slow:    slow,
		Sampled: topt.Sampled,
	}
	if err != nil {
		t.Error = err.Error()
	}
	// Stage spans, reconstructed sequentially from the request's stage
	// durations: resolve always ran; queue/sim/marshal only on runs (for
	// coalesced requests they describe the in-flight run that was joined,
	// same as Server-Timing). Synchronization gaps between stages are
	// folded into the following stage's start, so the timeline is an
	// honest approximation, exact at the resolve boundary.
	t.Spans = append(t.Spans, obs.TraceSpan{Name: "resolve", D: sv.Resolve})
	if sv.Outcome == OutcomeMiss || sv.Outcome == OutcomeCoalesced {
		off := sv.Resolve
		t.Spans = append(t.Spans, obs.TraceSpan{Name: "queue", Start: off, D: sv.queue})
		off += sv.queue
		t.Spans = append(t.Spans, obs.TraceSpan{Name: "sim", Start: off, D: sv.sim})
		off += sv.sim
		t.Spans = append(t.Spans, obs.TraceSpan{Name: "marshal", Start: off, D: sv.marshal})
	}
	switch sv.Outcome {
	case OutcomeHit:
		t.Events = append(t.Events, obs.TraceEvent{Name: "cache-hit", At: sv.Resolve})
	case OutcomeCoalesced:
		t.Events = append(t.Events, obs.TraceEvent{Name: "single-flight-join", At: sv.Resolve})
	case OutcomeMiss:
		t.Events = append(t.Events, obs.TraceEvent{Name: "cache-miss", At: sv.Resolve})
	case OutcomeShed:
		t.Events = append(t.Events, obs.TraceEvent{Name: "shed", At: sv.Total})
	case OutcomeError:
		t.Events = append(t.Events, obs.TraceEvent{Name: "error", At: sv.Total})
	}
	// Racer child spans (portfolio runs): wall-clock by nature, placed on
	// per-entrant tracks. A racer that started before this request's span
	// (possible for coalesced joiners) clamps to the trace start.
	for _, ob := range sv.racers {
		if ob.Start.IsZero() {
			t.Events = append(t.Events, obs.TraceEvent{Name: "racer-skipped:" + ob.Algorithm, At: sv.Total})
			continue
		}
		start := ob.Start.Sub(t.Start)
		if start < 0 {
			start = 0
		}
		t.Spans = append(t.Spans, obs.TraceSpan{
			Name: "racer:" + ob.Algorithm, Track: ob.Index + 1, Start: start, D: ob.Wall})
	}
	s.traces.Add(t)
	if c := s.tracesKept[reason]; c != nil {
		c.Inc()
	}
}

// TracezSummary is one trace in the GET /tracez listing: identity, verdicts,
// and the per-stage breakdown in milliseconds. The ID is the cross-link —
// the same value appears in the response's Server-Timing `traceid` entry
// and the structured request log's `trace` field.
type TracezSummary struct {
	ID       string             `json:"id"`
	Endpoint string             `json:"endpoint"`
	Outcome  string             `json:"outcome"`
	Error    string             `json:"error,omitempty"`
	Start    time.Time          `json:"start"`
	TotalMs  float64            `json:"totalMs"`
	Slow     bool               `json:"slow"`
	Sampled  bool               `json:"sampled"`
	Stages   map[string]float64 `json:"stages"`
	Racers   int                `json:"racers,omitempty"`
}

// TracezResponse is the GET /tracez payload.
type TracezResponse struct {
	Capacity        int             `json:"capacity"`
	Kept            int             `json:"kept"`      // traces currently held
	TotalKept       int64           `json:"totalKept"` // lifetime keeps
	Evicted         int64           `json:"evicted"`
	SampleRate      float64         `json:"sampleRate"`
	SlowThresholdMs float64         `json:"slowThresholdMs"`
	Traces          []TracezSummary `json:"traces"`
}

// TraceSpanJSON / TraceEventJSON / TraceJSON are the full single-trace
// view of GET /tracez/{id} (the default format; ?format=trace-event emits
// Chrome trace_event JSON instead).
type TraceSpanJSON struct {
	Name    string  `json:"name"`
	Track   int     `json:"track"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

type TraceEventJSON struct {
	Name string  `json:"name"`
	AtMs float64 `json:"atMs"`
}

type TraceJSON struct {
	TracezSummary
	Spans  []TraceSpanJSON  `json:"spans"`
	Events []TraceEventJSON `json:"events,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func summarize(t *obs.Trace) TracezSummary {
	sum := TracezSummary{
		ID:       t.ID,
		Endpoint: t.Name,
		Outcome:  t.Outcome,
		Error:    t.Error,
		Start:    t.Start,
		TotalMs:  ms(t.Total),
		Slow:     t.Slow,
		Sampled:  t.Sampled,
		Stages:   make(map[string]float64, 4),
	}
	for _, sp := range t.Spans {
		if sp.Track == 0 {
			sum.Stages[sp.Name] = ms(sp.D)
		} else {
			sum.Racers++
		}
	}
	return sum
}

// handleTracez lists the most recent traces, newest first. ?n= bounds the
// listing (default 64, capped by what the ring holds).
func (s *Service) handleTracez(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.writeError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	n := 64
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := parsePositiveInt(q); err == nil {
			n = v
		}
	}
	total := s.traces.Total()
	held := s.traces.Snapshot(n)
	out := TracezResponse{
		Capacity:        s.traces.Capacity(),
		Kept:            s.traces.Len(),
		TotalKept:       total,
		Evicted:         total - int64(s.traces.Len()),
		SampleRate:      sampleRate(s.cfg.TraceSample),
		SlowThresholdMs: slowMs(s.cfg.TraceSlow),
		Traces:          make([]TracezSummary, len(held)),
	}
	for i, t := range held {
		out.Traces[i] = summarize(t)
	}
	writeJSON(w, out)
}

// handleTracezOne serves one trace by ID: the full span/event view by
// default, Chrome trace_event JSON (Perfetto-loadable) with
// ?format=trace-event.
func (s *Service) handleTracezOne(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		s.writeError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	t, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errTraceNotFound)
		return
	}
	if r.URL.Query().Get("format") == "trace-event" {
		w.Header().Set("Content-Type", "application/json")
		obs.WriteTraceEvent(w, t)
		return
	}
	out := TraceJSON{
		TracezSummary: summarize(t),
		Spans:         make([]TraceSpanJSON, len(t.Spans)),
	}
	for i, sp := range t.Spans {
		out.Spans[i] = TraceSpanJSON{Name: sp.Name, Track: sp.Track, StartMs: ms(sp.Start), DurMs: ms(sp.D)}
	}
	for _, ev := range t.Events {
		out.Events = append(out.Events, TraceEventJSON{Name: ev.Name, AtMs: ms(ev.At)})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(body, '\n'))
}

// sampleRate / slowMs render the effective config (negatives mean
// "disabled" and report as 0).
func sampleRate(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func slowMs(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return ms(d)
}

func parsePositiveInt(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, errBadInt
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' || n > 1<<24 {
			return 0, errBadInt
		}
		n = n*10 + int(s[i]-'0')
	}
	if n < 1 {
		return 0, errBadInt
	}
	return n, nil
}

var (
	errTracingDisabled = errors.New("tracing disabled (serve with -trace-buffer > 0)")
	errTraceNotFound   = errors.New("trace not found (evicted or never kept)")
	errBadInt          = errors.New("want a positive integer")
)
