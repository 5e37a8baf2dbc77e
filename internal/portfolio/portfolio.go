// Package portfolio is the racing engine: it runs several dFTP algorithms
// concurrently on one instance and returns the best schedule under a
// pluggable Objective. The paper's algorithms trade makespan against energy
// differently per instance family (separator waves win on clustered swarms,
// greedy grids win on dense disks), so no single algorithm dominates; racing
// them exploits that complementarity, and for early-stop objectives
// (FirstUnder) the engine cancels losing racers mid-simulation via
// context-based cancellation (sim.RunCtx), so a portfolio can finish as soon
// as any entrant produces a good-enough schedule.
//
// Results are deterministic by construction, exactly like the experiment
// engine this package borrows its machinery from: every racer gets a private
// RNG stream derived from the portfolio seed and its index (the splitmix64
// scheme of internal/rngstream), the winner is decided by portfolio order
// and deterministic simulation results — never by wall-clock arrival — and
// scheduling-dependent observations (which racers were actually aborted
// mid-run) are kept out of the reported racer stats. Same portfolio, same
// instance, same seed ⇒ identical winner and identical stats at any worker
// count, which is what makes portfolio responses content-addressable and
// cacheable by the solver service.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/rngstream"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// Portfolio is the meta-algorithm: an ordered list of entrant algorithms
// plus the objective that judges them. Order is significant — it is the
// deterministic tie-break, and for early-stop objectives the priority: the
// lowest-indexed racer meeting the target wins even if a later racer
// happened to finish first on the wall clock.
type Portfolio struct {
	// Algorithms are the entrants, in priority order. At least one.
	Algorithms []dftp.Algorithm
	// Objective judges the race; nil means MinMakespan.
	Objective Objective
	// Seed derives the racers' private RNG streams: racer i owns the stream
	// rngstream.New(Seed, i), reported as RacerResult.Seed. The paper's four
	// algorithms are deterministic and draw nothing from their streams, but
	// the streams are part of each racer's identity — and of the portfolio's
	// content hash — so randomized entrants can join later without breaking
	// the schedule-independence contract.
	Seed int64
}

// objective returns the configured objective, defaulting to MinMakespan.
func (p Portfolio) objective() Objective {
	if p.Objective == nil {
		return MinMakespan{}
	}
	return p.Objective
}

// Name returns the canonical descriptor of the portfolio — the string that
// takes the algorithm's place in the solve-request content hash. Entrant
// order, objective, and seed are all part of it.
func (p Portfolio) Name() string {
	names := make([]string, len(p.Algorithms))
	for i, a := range p.Algorithms {
		names[i] = a.Name()
	}
	return fmt.Sprintf("portfolio[%s;obj=%s;seed=%d]",
		strings.Join(names, ","), p.objective().Name(), p.Seed)
}

// Status classifies a racer's outcome in the reported stats.
type Status string

// Racer statuses. Cancelled covers every racer behind the winner of an
// early-stop race, whether it was skipped before starting, aborted
// mid-simulation, or had already finished when the winner was decided — the
// distinction depends on scheduling, so the stats do not make it.
const (
	StatusWon       Status = "won"
	StatusCompleted Status = "completed"
	StatusCancelled Status = "cancelled"
	StatusError     Status = "error"
)

// RacerResult is one entrant's deterministic outcome. Metrics are only
// present for Won/Completed racers; Cancelled racers report identity alone.
type RacerResult struct {
	Index     int
	Algorithm string
	// Seed is the racer's private RNG-stream seed.
	Seed   int64
	Status Status
	// Satisfied reports whether the run met the objective's early-stop
	// target (always false for objectives without one).
	Satisfied   bool
	Makespan    float64
	Duration    float64
	MaxEnergy   float64
	TotalEnergy float64
	AllAwake    bool
	Awakened    int
	Rounds      int
	Score       float64
	Err         string
}

// Result is the outcome of a race.
type Result struct {
	// Winner indexes Racers; the winning racer has StatusWon.
	Winner int
	// Satisfied reports whether the winner met the objective's early-stop
	// target (relevant for FirstUnder; false means the race fell back to the
	// objective's score over all completed runs).
	Satisfied bool
	// Cancelled counts racers with StatusCancelled. Deterministic.
	Cancelled int
	// Racers holds one deterministic entry per entrant, in portfolio order.
	Racers []RacerResult
	// Res and Rep are the winning run's full simulation result and report.
	Res sim.Result
	Rep *dftp.Report
	// WinnerFaults is the fault specification (or draw) that produced the
	// winning run, nil for a fault-free race: with the winner's algorithm and
	// the race's inputs, dftp.SolveFaulted reproduces that run exactly.
	WinnerFaults *dftp.Faults
	// Events is the winning run's event trace (only when Options.Trace).
	Events []sim.Event

	// Aborted counts racers whose simulation was actually skipped or stopped
	// mid-run. It depends on scheduling — unlike Cancelled, it MUST NOT be
	// serialized into cacheable responses; it exists for diagnostics and for
	// tests that assert cancellation really happens.
	Aborted int
}

// Options tune a race. Workers, Trace, and Observe never change the
// outcome; Metric changes the problem itself (every racer simulates under
// it), so it is part of the race's content-addressed identity at the
// service layer.
type Options struct {
	// Workers bounds the racing pool (default GOMAXPROCS, clamped to the
	// number of entrants). Any value produces identical results.
	Workers int
	// Trace records the winning run's event stream into Result.Events.
	Trace bool
	// Metric is the distance every racer's simulation is measured in (nil
	// means ℓ2). Objectives thereby score makespan and energy under the
	// instance's metric automatically — the sim results are already in it.
	Metric geom.Metric
	// Observe, when non-nil, receives one RacerObservation per entrant as
	// its run finishes. Observations carry wall-clock timings — they are
	// scheduling-dependent by nature, which is why they flow through this
	// side channel instead of the deterministic Result: the serving tier
	// feeds them to latency histograms and logs, never into cacheable
	// response bodies. Observe may be called from several worker goroutines
	// concurrently and must be safe for that.
	Observe func(RacerObservation)
	// Faults runs every racer under the given fault specification
	// (dftp.SolveFaulted). Like Metric it changes the problem itself, so it is
	// part of the race's content-addressed identity at the service layer. The
	// UnderFaults objective requires it.
	Faults *dftp.Faults
}

// RacerObservation is one entrant's wall-clock telemetry: how long its
// simulation actually ran on this host, and — for racers cancelled
// mid-run — how long cancellation took to bite (the lag between the
// winning racer firing the cancel and this racer's simulation unwinding).
// Everything here depends on scheduling; none of it is part of the race's
// deterministic outcome.
type RacerObservation struct {
	Index     int
	Algorithm string
	// Start is when the racer's simulation began on this host (zero for
	// racers skipped before starting). Together with Wall it places the
	// racer as a child span on a request's trace timeline.
	Start time.Time
	// Wall is the racer's simulation wall time (zero for racers skipped
	// before starting).
	Wall time.Duration
	// CancelLatency is how long after its context was cancelled the racer's
	// simulation actually returned; zero for racers that were not cancelled
	// mid-run.
	CancelLatency time.Duration
	// Aborted reports the racer was skipped or stopped mid-run.
	Aborted bool
	// Err is the error the racer's run ended with, which makes its status
	// "error"; nil for racers that completed or were aborted.
	Err error
}

// racerRun is one racer's raw, possibly scheduling-dependent outcome before
// the deterministic normalization pass.
type racerRun struct {
	res      sim.Result
	rep      *dftp.Report
	err      error
	accepted bool
	aborted  bool // skipped or ctx-stopped; scheduling-dependent
	// faults is the specification that produced res — under an UnderFaults
	// objective, the representative (worst) draw's reseeded copy.
	faults *dftp.Faults
}

// control coordinates early stopping: best is the lowest accepted index so
// far, and accepting racer i cancels every racer behind it. Racers ahead of
// i keep running — one of them may still accept and supersede i.
type control struct {
	mu      sync.Mutex
	best    int
	cancels []context.CancelFunc
	// cancelledAt records when each racer's cancel first fired (zero until
	// then); the observability side channel derives cancellation latency
	// from it. Never consulted by the deterministic outcome.
	cancelledAt []time.Time
}

func (c *control) accepted(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.best >= 0 && c.best <= i {
		return
	}
	c.best = i
	now := time.Now()
	for j := i + 1; j < len(c.cancels); j++ {
		if c.cancelledAt[j].IsZero() {
			c.cancelledAt[j] = now
		}
		c.cancels[j]()
	}
}

// cancelTime returns when racer i's cancel fired (zero if it never did).
func (c *control) cancelTime(i int) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelledAt[i]
}

// doomed reports whether racer i can no longer win (a lower index accepted).
func (c *control) doomed(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.best >= 0 && c.best < i
}

// Race runs every entrant of p on the instance concurrently and returns the
// winner under p's objective. The budget is the usual per-robot energy
// budget (≤ 0 unconstrained), applied to every racer. A heterogeneous
// instance races every entrant under its per-robot profiles — speeds scale
// travel time and capacities override the uniform budget (dftp.SolveFaulted) —
// so objectives score the runs the profiles actually produce.
func Race(p Portfolio, inst *instance.Instance, tup dftp.Tuple, budget float64, opts Options) (*Result, error) {
	if len(p.Algorithms) == 0 {
		return nil, errors.New("portfolio: no algorithms to race")
	}
	obj := p.objective()
	if err := validate(obj); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	if _, ok := obj.(UnderFaults); ok && opts.Faults == nil {
		return nil, errors.New("portfolio: the under-faults objective needs a fault specification (Options.Faults)")
	}

	k := len(p.Algorithms)
	ctl := &control{best: -1, cancels: make([]context.CancelFunc, k), cancelledAt: make([]time.Time, k)}
	ctxs := make([]context.Context, k)
	for i := range ctxs {
		ctxs[i], ctl.cancels[i] = context.WithCancel(context.Background())
	}
	defer func() {
		for _, cancel := range ctl.cancels {
			cancel()
		}
	}()

	// Fan the racers out over a bounded pool — the experiment engine's
	// worker-pool shape, with the same splitmix64 per-index RNG streams.
	runs := make([]racerRun, k)
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				runs[i] = runRacer(p, obj, inst, tup, budget, opts.Metric, opts.Faults, i, ctxs[i], ctl, opts.Observe)
			}
		}()
	}
	for i := 0; i < k; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	out, err := assemble(p, obj, runs)
	if err != nil {
		return nil, err
	}
	if opts.Trace {
		// Racers run untraced (recording k streams to keep one would hold
		// k traces in memory); the simulator is deterministic, so
		// re-solving the winner with a recorder reproduces the winning run
		// exactly, at the cost of one extra simulation per traced race.
		rec := trace.New()
		if _, _, err := dftp.SolveFaulted(context.Background(), nil, opts.Metric, p.Algorithms[out.Winner], inst, tup, budget, out.WinnerFaults, rec.Record); err != nil {
			return nil, fmt.Errorf("portfolio: re-tracing the winner: %w", err)
		}
		out.Events = rec.Events()
	}
	return out, nil
}

// runRacer executes entrant i unless the race is already decided against it.
func runRacer(p Portfolio, obj Objective, inst *instance.Instance, tup dftp.Tuple, budget float64,
	m geom.Metric, faults *dftp.Faults, i int, ctx context.Context, ctl *control, observe func(RacerObservation)) racerRun {
	if ctl.doomed(i) {
		if observe != nil {
			observe(RacerObservation{Index: i, Algorithm: p.Algorithms[i].Name(), Aborted: true})
		}
		return racerRun{aborted: true}
	}
	var start time.Time
	if observe != nil {
		start = time.Now()
	}
	res, rep, resFaults, err := solveRacer(ctx, m, p.Algorithms[i], inst, tup, budget, faults, obj)
	if ctx.Err() != nil {
		// Aborted mid-run: the result is partial and scheduling-dependent —
		// discard everything but the fact of the abort.
		if observe != nil {
			ob := RacerObservation{Index: i, Algorithm: p.Algorithms[i].Name(), Start: start, Wall: time.Since(start), Aborted: true}
			if at := ctl.cancelTime(i); !at.IsZero() {
				ob.CancelLatency = time.Since(at)
			}
			observe(ob)
		}
		return racerRun{aborted: true}
	}
	if observe != nil {
		observe(RacerObservation{Index: i, Algorithm: p.Algorithms[i].Name(), Start: start, Wall: time.Since(start), Err: err})
	}
	if err != nil {
		return racerRun{err: err}
	}
	run := racerRun{res: res, rep: rep, faults: resFaults, accepted: obj.Accept(res)}
	if run.accepted {
		ctl.accepted(i)
	}
	return run
}

// solveRacer runs one entrant, under the race's fault specification when one
// is set. Under an UnderFaults objective the entrant endures Draws
// independent fault draws — draw j reseeds the specification with
// rngstream.TrialSeed(seed, j) — and the representative result is the worst
// draw (incomplete wake-ups first, then the largest makespan, earliest draw
// on exact ties), so the objective scores each algorithm by its worst
// observed behavior. The returned specification is the one that produced the
// returned result (nil without faults); the winner's is Result.WinnerFaults.
func solveRacer(ctx context.Context, m geom.Metric, alg dftp.Algorithm, inst *instance.Instance,
	tup dftp.Tuple, budget float64, faults *dftp.Faults, obj Objective) (sim.Result, *dftp.Report, *dftp.Faults, error) {
	uf, multi := obj.(UnderFaults)
	if !multi {
		res, rep, err := dftp.SolveFaulted(ctx, nil, m, alg, inst, tup, budget, faults, nil)
		return res, rep, faults, err
	}
	var (
		worstRes sim.Result
		worstRep *dftp.Report
		worstF   *dftp.Faults
	)
	for j := 0; j < uf.draws(); j++ {
		fj := *faults
		fj.Seed = rngstream.TrialSeed(faults.Seed, j)
		res, rep, err := dftp.SolveFaulted(ctx, nil, m, alg, inst, tup, budget, &fj, nil)
		if err != nil {
			return res, rep, &fj, err
		}
		if worstF == nil || worseDraw(res, worstRes) {
			worstRes, worstRep, worstF = res, rep, &fj
		}
	}
	return worstRes, worstRep, worstF, nil
}

// worseDraw reports whether a is a strictly worse draw than b: incomplete
// wake-ups dominate, then larger makespan.
func worseDraw(a, b sim.Result) bool {
	if a.AllAwake != b.AllAwake {
		return !a.AllAwake
	}
	return a.Makespan > b.Makespan
}

// assemble normalizes the raw runs into a deterministic Result. The winner
// is decided by portfolio order and simulation content only: the lowest
// accepted index if any racer met the early-stop target, otherwise the best
// score among completed runs (complete wake-ups first, then score, then
// index). Every racer behind an early-stop winner reports StatusCancelled
// with no metrics, whether or not it happened to finish — its outcome is
// unknowable in general (it may have been stopped mid-run), so reporting it
// would make the response depend on scheduling.
func assemble(p Portfolio, obj Objective, runs []racerRun) (*Result, error) {
	out := &Result{Winner: -1}
	for i, run := range runs {
		if run.aborted {
			out.Aborted++
		}
		if run.accepted && out.Winner < 0 {
			out.Winner = i
			out.Satisfied = true
		}
	}
	if out.Winner < 0 {
		// No early stop: every racer ran to completion (or errored)
		// deterministically; pick the best completed run.
		for i, run := range runs {
			if run.err != nil || run.aborted {
				continue
			}
			if out.Winner < 0 || better(obj, run.res, runs[out.Winner].res) {
				out.Winner = i
			}
		}
	}
	if out.Winner < 0 {
		errs := make([]string, 0, len(runs))
		for i, run := range runs {
			if run.err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", p.Algorithms[i].Name(), run.err))
			}
		}
		return nil, fmt.Errorf("portfolio: every racer failed: %s", strings.Join(errs, "; "))
	}

	win := runs[out.Winner]
	out.Res, out.Rep, out.WinnerFaults = win.res, win.rep, win.faults
	out.Racers = make([]RacerResult, len(runs))
	for i, run := range runs {
		rr := RacerResult{Index: i, Algorithm: p.Algorithms[i].Name(), Seed: rngstream.TrialSeed(p.Seed, i)}
		switch {
		case i == out.Winner:
			rr.Status = StatusWon
		case out.Satisfied && i > out.Winner:
			rr.Status = StatusCancelled
		case run.err != nil:
			rr.Status = StatusError
			rr.Err = run.err.Error()
		default:
			rr.Status = StatusCompleted
		}
		if rr.Status == StatusWon || rr.Status == StatusCompleted {
			rr.Satisfied = run.accepted
			rr.Makespan = run.res.Makespan
			rr.Duration = run.res.Duration
			rr.MaxEnergy = run.res.MaxEnergy
			rr.TotalEnergy = run.res.TotalEnergy
			rr.AllAwake = run.res.AllAwake
			rr.Awakened = run.res.Awakened
			rr.Rounds = run.rep.Rounds
			rr.Score = obj.Score(run.res)
		}
		if rr.Status == StatusCancelled {
			out.Cancelled++
		}
		out.Racers[i] = rr
	}
	return out, nil
}

// better reports whether a beats b under obj: complete wake-ups first, then
// lower score; the caller's index order breaks exact ties.
func better(obj Objective, a, b sim.Result) bool {
	if a.AllAwake != b.AllAwake {
		return a.AllAwake
	}
	return obj.Score(a) < obj.Score(b)
}
