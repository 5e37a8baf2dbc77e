// Package dftp implements the paper's three distributed Freeze Tag
// algorithms on the simulator:
//
//   - ASeparator (§3, Theorem 1): divide-and-conquer with geometric
//     separators; makespan O(ρ + ℓ²log(ρ/ℓ)), unconstrained energy.
//   - AGrid (§8.1, Theorem 4): BFS wave over a grid of width-2ℓ squares;
//     energy O(ℓ²), makespan O(ℓ·ξℓ).
//   - AWave (§8.2, Theorem 5): the AGrid wave with width-8ℓ²log₂ℓ squares,
//     each woken by ASeparator; energy O(ℓ²logℓ), makespan
//     O(ξℓ + ℓ²log(ξℓ/ℓ)).
//
// Implementation deviations from the paper: round schedules use 9
// slot-widths per round instead of 8 (one slot of explicit slack for
// gathering and late wake-ups), and the slot-work constants t(·) are
// explicit calibrated upper bounds for this codebase's exploration and
// wake-tree constants. Neither changes any asymptotic bound.
package dftp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"freezetag/internal/arena"
	"freezetag/internal/diskgraph"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// Tuple is the (ℓ, ρ, n) input handed to the source robot (Definition 1).
type Tuple struct {
	Ell float64
	Rho float64
	N   int
}

// L returns the integer team-size parameter ⌈ℓ⌉ used for 4ℓ team targets.
func (t Tuple) L() int {
	l := int(math.Ceil(t.Ell))
	if l < 1 {
		l = 1
	}
	return l
}

// Admissible reports ℓ ≤ ρ ≤ nℓ with ℓ > 0.
func (t Tuple) Admissible() bool {
	return t.Ell > 0 && t.Rho >= t.Ell && t.Rho <= float64(t.N)*t.Ell
}

// TupleForIn computes an admissible tuple from an instance's exact ℓ* and
// ρ* under metric m, rounding ℓ and ρ up to integers as the paper assumes.
// ℓ* and ρ* are metric-dependent, so the knowledge handed to the source
// must be measured in the metric the simulation runs in. The tuple does not
// involve ξ, so it is never derived here.
func TupleForIn(m geom.Metric, inst *instance.Instance) Tuple {
	return TupleFromParams(diskgraph.Params{
		Rho: geom.MaxDistFromIn(m, inst.Source, inst.Points),
		Ell: diskgraph.ConnectivityThresholdIn(m, inst.Source, inst.Points),
		N:   inst.N(),
	})
}

// TupleFromParams rounds already-computed exact parameters into the
// admissible tuple. Callers that need the params for their own reporting
// use this to avoid a second derivation.
func TupleFromParams(p diskgraph.Params) Tuple {
	ell := math.Ceil(p.Ell)
	if ell < 1 {
		ell = 1
	}
	rho := math.Ceil(p.Rho)
	if rho < ell {
		rho = ell
	}
	return Tuple{Ell: ell, Rho: rho, N: p.N}
}

// Report carries run diagnostics surfaced by the algorithms.
type Report struct {
	// Misses lists synchronization-deadline misses. A correct configuration
	// produces none; any entry means the calibrated slot constants were too
	// tight for the instance.
	Misses []string
	// Rounds is the highest round index (AGrid/AWave) or recursion depth
	// (ASeparator) reached.
	Rounds int
}

func (r *Report) miss(format string, args ...interface{}) {
	r.Misses = append(r.Misses, fmt.Sprintf(format, args...))
}

func (r *Report) sawRound(k int) {
	if k > r.Rounds {
		r.Rounds = k
	}
}

// Algorithm is one of the paper's dFTP algorithms.
type Algorithm interface {
	Name() string
	// Install spawns the source program on the engine. The returned Report
	// is filled in during the subsequent Engine.Run.
	Install(e *sim.Engine, tup Tuple) *Report
}

// Solve runs alg on inst with the given per-robot energy budget (≤ 0 for
// unconstrained) and returns the simulation result and report: SolveFaulted
// with every option at its default — ℓ2, no faults, no trace, a fresh engine.
func Solve(alg Algorithm, inst *instance.Instance, tup Tuple, budget float64) (sim.Result, *Report, error) {
	return SolveFaulted(context.Background(), nil, nil, alg, inst, tup, budget, nil, nil)
}

// SolveFaulted is the root of the Solve family. It runs alg on in with all
// distances — travel times, energy, the radius-1 Look — measured under
// metric m (nil defaults to ℓ2); the tuple should be measured in the same
// metric (see TupleForIn). A heterogeneous instance hands its per-robot
// profiles to the engine, so travel times divide by speed and private
// capacities cap energy; budget stays the uniform fallback for robots
// without a capacity of their own. traceFn, when non-nil, receives every
// event; tracing never changes the result.
//
// Cancelling ctx abandons the simulation at the next event dispatch and
// returns the partial result with an error wrapping sim.ErrCancelled and
// ctx.Err(); the portfolio racing engine cancels losing racers this way.
//
// The engine is checked out of the worker arena ar and reset against in
// instead of being rebuilt, so a steady stream of same-shape jobs simulates
// without allocating; a nil arena builds a fresh one-shot engine. The result
// is bit-identical either way, but everything it references is invalidated
// by the arena's next job — callers marshal within the job.
//
// A non-nil faults runs the engine under faults.Plan, and when faults.Repair
// is set arms the wakeup repair layer after the algorithm installs (polling
// at the ℓ travel scale of the slowest robot). An unreleasable deadlock
// under injection (orphaned synchronization whose branches died) is an
// expected incompletion mode, not a harness failure: it is swallowed and
// reported through the result's AllAwake/Awakened fields instead. A nil
// faults skips all of this: the run is the plain engine run, deadlocks
// included.
func SolveFaulted(ctx context.Context, ar *arena.Arena, m geom.Metric, alg Algorithm, in *instance.Instance, tup Tuple, budget float64, faults *Faults, traceFn func(sim.Event)) (sim.Result, *Report, error) {
	cfg := sim.Config{
		Source:   in.Source,
		Sleepers: in.Points,
		Budget:   budget,
		Profiles: simProfiles(in),
		Metric:   m,
		Trace:    traceFn,
	}
	if faults != nil {
		if err := faults.Validate(); err != nil {
			return sim.Result{}, &Report{}, err
		}
		cfg.Faults = faults.Plan(geom.MetricOrL2(m), in, tup)
	}
	e := sim.NewEngineIn(ar, cfg)
	rep := alg.Install(e, tup)
	if faults != nil && faults.Repair {
		wakeup.InstallRepair(e, wakeup.RepairConfig{Poll: math.Max(1, tup.Ell) / e.MinSpeed()})
	}
	res, err := e.RunCtx(ctx)
	if faults != nil && errors.Is(err, sim.ErrDeadlock) {
		err = nil
	}
	return res, rep, err
}

// simProfiles converts an instance's profiles to the simulator's mirror
// type (nil for homogeneous instances).
func simProfiles(inst *instance.Instance) []sim.Profile {
	if len(inst.Profiles) == 0 {
		return nil
	}
	ps := make([]sim.Profile, len(inst.Profiles))
	for i, p := range inst.Profiles {
		ps[i] = sim.Profile{Speed: p.Speed, Capacity: p.Capacity}
	}
	return ps
}

// assignSub maps a point to the index of the sub-square that owns it:
// the first quadrant strictly containing it, falling back to tolerant
// containment for points on the top/right boundary. Every point of the
// parent square is assigned to exactly one sub-square.
func assignSub(p geom.Point, subs [4]geom.Square) int {
	for i, s := range subs {
		if s.Rect().ContainsStrict(p) {
			return i
		}
	}
	for i, s := range subs {
		if s.Contains(p) {
			return i
		}
	}
	// Outside the parent square entirely: attribute to the nearest
	// sub-square so the caller's filters can still reject it consistently.
	best, bd := 0, math.Inf(1)
	for i, s := range subs {
		if d := s.Rect().DistTo(p); d < bd {
			best, bd = i, d
		}
	}
	return best
}
