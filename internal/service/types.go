package service

import (
	"encoding/json"
	"fmt"
	"strings"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/sim"
)

// SolveRequest is the wire form of one solve. The instance comes either
// inline (Instance) or generated from a workload family (Family/N/Param/
// Seed); an inline instance wins when both are present. The tuple defaults
// to dftp.TupleFor(instance) and can be overridden. Requests with the same
// canonical content hash to the same key regardless of how the instance was
// supplied.
type SolveRequest struct {
	Algorithm string             `json:"algorithm"`
	Metric    string             `json:"metric,omitempty"` // l1 | l2 | linf | lp:<p>; empty = l2
	Instance  *instance.Instance `json:"instance,omitempty"`
	Family    string             `json:"family,omitempty"`
	N         int                `json:"n,omitempty"`
	Param     float64            `json:"param,omitempty"`
	Seed      int64              `json:"seed,omitempty"`
	Tuple     *TupleJSON         `json:"tuple,omitempty"`
	Budget    float64            `json:"budget,omitempty"`
	// Profiles, when non-empty, makes the solve heterogeneous: one profile
	// per sleeping robot (speeds finite and > 0, or the request is a 400).
	// It overrides any profiles the instance or family modifiers supplied,
	// and is content-addressed — two requests differing only in profiles
	// hash to different keys.
	Profiles []instance.Profile `json:"profiles,omitempty"`
	// Faults, when present, runs the solve under the given fault
	// specification (validated — malformed specs are a 400) and switches the
	// request's content address to the dftp-request/v4 form. Absent faults
	// leave the hash and response bytes exactly as the fault-free wire
	// format defines them.
	Faults *dftp.Faults `json:"faults,omitempty"`
}

// TupleJSON is the wire form of the (ℓ, ρ, n) knowledge tuple.
type TupleJSON struct {
	Ell float64 `json:"ell"`
	Rho float64 `json:"rho"`
	N   int     `json:"n"`
}

// SolveResponse is the wire form of one solve result. It is shared by
// POST /v1/solve and `dftp-run -json`, so command-line and served results
// are machine-comparable field for field.
type SolveResponse struct {
	Hash        string    `json:"hash"`
	Algorithm   string    `json:"algorithm"`
	Metric      string    `json:"metric"`
	Instance    string    `json:"instance"`
	N           int       `json:"n"`
	Tuple       TupleJSON `json:"tuple"`
	Budget      float64   `json:"budget"`
	Makespan    float64   `json:"makespan"`
	Duration    float64   `json:"duration"`
	AllAwake    bool      `json:"allAwake"`
	Awakened    int       `json:"awakened"`
	MaxEnergy   float64   `json:"maxEnergy"`
	TotalEnergy float64   `json:"totalEnergy"`
	Rounds      int       `json:"rounds"`
	Misses      []string  `json:"misses,omitempty"`
	Violations  []string  `json:"violations,omitempty"`
	// Profiles echoes the per-robot capability profiles the solve ran under
	// (omitted for homogeneous solves, keeping their bodies byte-identical
	// to the pre-profile wire format).
	Profiles []instance.Profile `json:"profiles,omitempty"`
	// Faults echoes a faulted solve's specification and injection outcome
	// (omitted for fault-free solves, keeping their bodies byte-identical to
	// the fault-free wire format).
	Faults *FaultsEcho `json:"faults,omitempty"`
}

// FaultsEcho is the fault section of a faulted solve's response: the
// specification the run executed — echoed back so clients can confirm what
// was injected — plus the deterministic injection counters and the resulting
// completion rate (awakened / n; 1 means the swarm still fully woke).
type FaultsEcho struct {
	Spec         dftp.Faults `json:"spec"`
	Injected     int64       `json:"injected"`
	CrashStops   int64       `json:"crashStops,omitempty"`
	Recoveries   int64       `json:"recoveries,omitempty"`
	WakeDrops    int64       `json:"wakeDrops,omitempty"`
	WakeDups     int64       `json:"wakeDups,omitempty"`
	ByzTakeovers int64       `json:"byzTakeovers,omitempty"`
	RosterSkips  int64       `json:"rosterSkips,omitempty"`
	Repairs      int64       `json:"repairs"`
	Completion   float64     `json:"completion"`
}

// NewFaultsEcho assembles the response's fault section from the spec and the
// run's deterministic fault counters. Nil spec (a fault-free solve) returns
// nil, which json omits.
func NewFaultsEcho(spec *dftp.Faults, res sim.Result, n int) *FaultsEcho {
	if spec == nil {
		return nil
	}
	f := res.Faults
	fe := &FaultsEcho{
		Spec:         *spec,
		Injected:     f.Injected(),
		CrashStops:   f.CrashStops,
		Recoveries:   f.Recoveries,
		WakeDrops:    f.WakeDrops,
		WakeDups:     f.WakeDups,
		ByzTakeovers: f.ByzTakeovers,
		RosterSkips:  f.RosterSkips,
		Repairs:      f.Repairs,
	}
	if n > 0 {
		fe.Completion = float64(res.Awakened) / float64(n)
	}
	return fe
}

// Named is anything with a canonical solver name: a dftp.Algorithm, or a
// portfolio.Portfolio whose Name is its hashed descriptor.
type Named interface{ Name() string }

// NewSolveResponse assembles the shared response struct from a solve's
// inputs and outputs. Budgets ≤ 0 are canonicalized to 0 (unconstrained)
// and the metric to its canonical name ("l2" when nil), matching the
// request hash.
func NewSolveResponse(hash string, alg Named, m geom.Metric, in *instance.Instance, tup dftp.Tuple, budget float64, res sim.Result, rep *dftp.Report) SolveResponse {
	if budget <= 0 {
		budget = 0
	}
	return SolveResponse{
		Hash:        hash,
		Algorithm:   alg.Name(),
		Metric:      geom.MetricOrL2(m).Name(),
		Instance:    in.Name,
		N:           in.N(),
		Tuple:       TupleJSON{Ell: tup.Ell, Rho: tup.Rho, N: tup.N},
		Budget:      budget,
		Makespan:    res.Makespan,
		Duration:    res.Duration,
		AllAwake:    res.AllAwake,
		Awakened:    res.Awakened,
		MaxEnergy:   res.MaxEnergy,
		TotalEnergy: res.TotalEnergy,
		Rounds:      rep.Rounds,
		Misses:      rep.Misses,
		Violations:  res.Violations,
		Profiles:    in.Profiles,
	}
}

// PortfolioRequest is the wire form of POST /v1/portfolio: a solve request
// whose single algorithm is replaced by an ordered list of entrants plus an
// objective (see portfolio.ParseObjective for the spellings; empty means
// min-makespan). Entrant order is significant — it is the deterministic
// tie-break and, for first-under-budget, the priority. Seed doubles as the
// family-generation seed and the portfolio seed deriving the racers'
// private RNG streams.
type PortfolioRequest struct {
	Algorithms []string           `json:"algorithms"`
	Objective  string             `json:"objective,omitempty"`
	Metric     string             `json:"metric,omitempty"` // l1 | l2 | linf | lp:<p>; empty = l2
	Instance   *instance.Instance `json:"instance,omitempty"`
	Family     string             `json:"family,omitempty"`
	N          int                `json:"n,omitempty"`
	Param      float64            `json:"param,omitempty"`
	Seed       int64              `json:"seed,omitempty"`
	Tuple      *TupleJSON         `json:"tuple,omitempty"`
	Budget     float64            `json:"budget,omitempty"`
	// Profiles races every entrant under per-robot capability profiles; see
	// SolveRequest.Profiles for the validation and hashing rules.
	Profiles []instance.Profile `json:"profiles,omitempty"`
	// Faults races every entrant under the given fault specification; see
	// SolveRequest.Faults for the validation and hashing rules. Required by
	// the min-makespan-under-faults objective.
	Faults *dftp.Faults `json:"faults,omitempty"`
}

// solveRequest is q without its entrants and objective: the instance,
// constraints and faults the request pipeline resolves and keys, which a
// portfolio request shares field for field with a solve request.
func (q PortfolioRequest) solveRequest() SolveRequest {
	return SolveRequest{Metric: q.Metric, Instance: q.Instance, Family: q.Family, N: q.N, Param: q.Param,
		Seed: q.Seed, Tuple: q.Tuple, Budget: q.Budget, Profiles: q.Profiles, Faults: q.Faults}
}

// RacerStat is one entrant's outcome in a PortfolioResponse. Every field is
// deterministic — decided by portfolio order and simulation content, never
// by which racer happened to finish first — which is what lets portfolio
// responses be cached byte-for-byte. Cancelled racers (status "cancelled")
// report identity only: their runs were stopped, skipped, or discarded, and
// exposing anything more would make the response depend on scheduling.
type RacerStat struct {
	Index     int     `json:"index"`
	Algorithm string  `json:"algorithm"`
	Seed      int64   `json:"seed"`
	Status    string  `json:"status"` // won | completed | cancelled | error
	Satisfied bool    `json:"satisfied,omitempty"`
	Makespan  float64 `json:"makespan,omitempty"`
	MaxEnergy float64 `json:"maxEnergy,omitempty"`
	Score     float64 `json:"score,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// PortfolioResponse is the wire form of one race: the winning run in the
// shared SolveResponse shape (Algorithm holds the portfolio's canonical
// descriptor — the string that was hashed; Winner the winning entrant) plus
// per-racer stats. Shared by POST /v1/portfolio and `dftp-run -alg
// portfolio -json`.
type PortfolioResponse struct {
	SolveResponse
	Objective string      `json:"objective"`
	Winner    string      `json:"winner"`
	Satisfied bool        `json:"satisfied"`
	Cancelled int         `json:"cancelled"`
	Racers    []RacerStat `json:"racers"`
}

// NewPortfolioResponse assembles the wire response from a race outcome.
func NewPortfolioResponse(hash string, pf portfolio.Portfolio, m geom.Metric, in *instance.Instance, tup dftp.Tuple, budget float64, res *portfolio.Result) PortfolioResponse {
	obj := pf.Objective
	if obj == nil {
		obj = portfolio.MinMakespan{}
	}
	winner := res.Racers[res.Winner]
	out := PortfolioResponse{
		SolveResponse: NewSolveResponse(hash, pf, m, in, tup, budget, res.Res, res.Rep),
		Objective:     obj.Name(),
		Winner:        winner.Algorithm,
		Satisfied:     res.Satisfied,
		Cancelled:     res.Cancelled,
		Racers:        make([]RacerStat, len(res.Racers)),
	}
	for i, rr := range res.Racers {
		out.Racers[i] = RacerStat{
			Index:     rr.Index,
			Algorithm: rr.Algorithm,
			Seed:      rr.Seed,
			Status:    string(rr.Status),
			Satisfied: rr.Satisfied,
			Makespan:  rr.Makespan,
			MaxEnergy: rr.MaxEnergy,
			Score:     rr.Score,
			Error:     rr.Err,
		}
	}
	return out
}

// BatchRequest is the wire form of POST /v1/batch.
type BatchRequest struct {
	Requests []SolveRequest `json:"requests"`
}

// BatchItem is one slot of a batch response, in request order: either the
// solve response or an error string (e.g. a shed request under load).
type BatchItem struct {
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the wire form of the POST /v1/batch reply. Results[i]
// always corresponds to Requests[i].
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// Stats is the /statsz payload.
type Stats struct {
	Hits            int64 `json:"hits"`            // served from the result cache
	Coalesced       int64 `json:"coalesced"`       // joined an identical in-flight solve
	Misses          int64 `json:"misses"`          // initiated a simulation
	Shed            int64 `json:"shed"`            // rejected with queue-full (HTTP 429)
	Solves          int64 `json:"solves"`          // simulations actually run
	Races           int64 `json:"races"`           // portfolio races actually run
	RacersCancelled int64 `json:"racersCancelled"` // losing racers cancelled by early-stop objectives
	MemoHits        int64 `json:"memoHits"`        // hits/coalesces served via the shape→hash memo (no instance re-generation)
	ParamsMemoHits  int64 `json:"paramsMemoHits"`  // cold solves whose (ℓ*, ρ*) derivation was served by the params memo
	// Derived ratios. All are defined as exactly 0 when their denominator
	// is zero (a fresh server), never NaN: encoding/json refuses NaN, so an
	// unguarded division would turn GET /statsz into a 500 at zero traffic.
	HitRate       float64 `json:"hitRate"`     // (hits+coalesced) / (hits+coalesced+misses)
	MemoHitRate   float64 `json:"memoHitRate"` // memoHits / (hits+coalesced) — cache serves that skipped instance materialization
	ShedRate      float64 `json:"shedRate"`    // shed / (hits+coalesced+misses+shed)
	QueueDepth    int     `json:"queueDepth"`
	QueueCapacity int     `json:"queueCapacity"`
	QueueWeight   int     `json:"queueWeight"`   // admitted effective slots (width-weighted, queued + running)
	AdmissionCap  int     `json:"admissionCap"`  // queueWeight ceiling: queueCapacity + workers
	CacheLen      int     `json:"cacheLen"`      // entries currently cached
	CacheBytes    int64   `json:"cacheBytes"`    // approximate retained bytes
	CacheCapacity int64   `json:"cacheCapacity"` // cache budget in bytes
	Evictions     int64   `json:"evictions"`     // entries the byte budget evicted (lifetime)
	EvictedBytes  int64   `json:"evictedBytes"`  // approximate retained bytes of those entries
	TracesKept    int64   `json:"tracesKept"`    // request traces kept by the /tracez flight recorder (lifetime)
	Workers       int     `json:"workers"`
}

// AlgorithmByName resolves the wire name of an algorithm (case-insensitive;
// the "a" prefix is optional: "agrid" and "grid" are the same).
func AlgorithmByName(name string) (dftp.Algorithm, error) {
	switch canonAlgName(name) {
	case "aseparator":
		return dftp.ASeparator{}, nil
	case "agrid":
		return dftp.AGrid{}, nil
	case "awave":
		return dftp.AWave{}, nil
	case "aseparatorauto":
		return dftp.ASeparatorAuto{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %q (have aseparator, agrid, awave, aseparatorauto)", ErrBadRequest, name)
	}
}

// canonAlgName lowercases and restores the "a" prefix, so "grid", "Grid",
// and "agrid" all canonicalize — and therefore hash — identically.
func canonAlgName(name string) string {
	n := strings.ToLower(name)
	switch n {
	case "separator", "grid", "wave", "separatorauto":
		return "a" + n
	}
	return n
}
