// Package explore implements the paper's exploration procedures:
//
//   - Lemma 1's boustrophedon (zigzag) rectangle sweep with √2 row pitch and
//     √2 snapshot pitch, for a single robot or a team of k robots exploring
//     k horizontal strips in parallel, in time O(wh/k + w + h);
//   - the Archimedean spiral search used as the single-robot discovery
//     baseline (the Θ(D²) cow-path argument from the introduction).
//
// Planning is pure (waypoint lists), execution runs on the simulator.
package explore

import (
	"fmt"
	"math"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// snapPitch is the Euclidean snapshot and row pitch √2: a radius-1 view
// contains the axis-parallel square of width √2 centered on the robot, so a
// √2 × √2 grid of snapshot points covers the plane. Under other metrics the
// pitch is the metric's inscribed-square width (1 for ℓ1, 2 for ℓ∞); see
// PlanRectIn.
var snapPitch = math.Sqrt2

// Plan is a deterministic exploration trajectory: the robot visits Stops in
// order and performs a Look at each.
type Plan struct {
	Stops []geom.Point
}

// PlanRect returns the single-robot zigzag plan covering rectangle r under
// Euclidean looks: every point of r is within distance 1 of some stop. Rows
// alternate direction so consecutive stops stay close (serpentine order).
// Degenerate rectangles yield a single-stop plan at the center.
func PlanRect(r geom.Rect) Plan { return planRectPitch(r, snapPitch) }

// PlanRectIn returns the zigzag plan covering r with radius-1 looks under
// metric m: the pitch is the side of the largest axis-aligned square
// inscribed in m's unit ball, so the stop lattice still covers every point
// of r. A tighter ball (ℓ1) means a finer lattice and a longer sweep; a
// looser one (ℓ∞) a coarser, cheaper sweep.
func PlanRectIn(m geom.Metric, r geom.Rect) Plan {
	return planRectPitch(r, geom.MetricOrL2(m).InscribedSquare())
}

func planRectPitch(r geom.Rect, pitch float64) Plan {
	return planRectInto(r, pitch, nil)
}

// planRectInto is planRectPitch writing the stop lattice into the provided
// buffer when it is large enough (the arena-backed serving path feeds it
// pooled buffers); the emitted stops are bit-identical either way.
func planRectInto(r geom.Rect, pitch float64, stops []geom.Point) Plan {
	w, h := r.Width(), r.Height()
	nx := int(math.Ceil(w / pitch))
	if nx < 1 {
		nx = 1
	}
	ny := int(math.Ceil(h / pitch))
	if ny < 1 {
		ny = 1
	}
	dx, dy := w/float64(nx), h/float64(ny)
	if cap(stops) < nx*ny {
		stops = make([]geom.Point, 0, nx*ny)
	} else {
		stops = stops[:0]
	}
	for row := 0; row < ny; row++ {
		y := r.Min.Y + (float64(row)+0.5)*dy
		for col := 0; col < nx; col++ {
			c := col
			if row%2 == 1 {
				c = nx - 1 - col // serpentine
			}
			x := r.Min.X + (float64(c)+0.5)*dx
			stops = append(stops, geom.Pt(x, y))
		}
	}
	return Plan{Stops: stops}
}

// Length returns the Euclidean travel length of the plan starting from
// `from` and ending at `to` (entry and exit legs included).
func (pl Plan) Length(from, to geom.Point) float64 { return pl.LengthIn(nil, from, to) }

// LengthIn returns the plan's travel length under metric m.
func (pl Plan) LengthIn(m geom.Metric, from, to geom.Point) float64 {
	mm := geom.MetricOrL2(m)
	if len(pl.Stops) == 0 {
		return mm.Dist(from, to)
	}
	return mm.Dist(from, pl.Stops[0]) + geom.PathLengthIn(mm, pl.Stops) +
		mm.Dist(pl.Stops[len(pl.Stops)-1], to)
}

// Covers reports whether every one of the probe points is within Euclidean
// distance 1 of some stop; used by the property tests as the Lemma 1
// validity check.
func (pl Plan) Covers(probes []geom.Point) bool { return pl.CoversIn(nil, probes) }

// CoversIn is Covers with visibility measured under metric m.
func (pl Plan) CoversIn(m geom.Metric, probes []geom.Point) bool {
	mm := geom.MetricOrL2(m)
	for _, q := range probes {
		ok := false
		for _, s := range pl.Stops {
			if geom.WithinIn(mm, s, q, 1) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Result is the merged outcome of an exploration: the sleeping robots seen,
// keyed by robot id, with their (initial) positions.
type Result struct {
	Asleep map[int]geom.Point
	// AwakeSeen lists awake robots observed during the sweep, keyed by id,
	// at the position they were observed.
	AwakeSeen map[int]geom.Point
}

func newResult() *Result {
	return &Result{Asleep: make(map[int]geom.Point), AwakeSeen: make(map[int]geom.Point)}
}

// rectScratch is the per-engine exploration pool: recycled Results (their
// maps keep capacity; they are cleared on checkout) and stop-lattice
// buffers checked out for the duration of one plan. It lives in the
// engine's scratch stash, so a pooled engine's repeated runs settle into
// allocation-free exploration.
type rectScratch struct {
	resFree  []*Result
	stopFree [][]geom.Point
	// keyseq disambiguates barrier keys (several explorations can share an
	// (ID, Now) pair). It counts within one run and rewinds with the engine,
	// so the keys, which appear on traces, depend only on the run.
	keyseq uint64
}

func scratchOf(e *sim.Engine) *rectScratch {
	return sim.ScratchOf(e, "explore.rect", func() *rectScratch { return &rectScratch{} })
}

// ResetRun implements sim.RunScratch.
func (sc *rectScratch) ResetRun() { sc.keyseq = 0 }

// barrierKey names one exploration's meeting barrier.
func (sc *rectScratch) barrierKey(p *sim.Proc) string {
	sc.keyseq++
	return fmt.Sprintf("explore/%d/%.9f/%d", p.ID(), p.Now(), sc.keyseq)
}

func (sc *rectScratch) getResult() *Result {
	if n := len(sc.resFree); n > 0 {
		res := sc.resFree[n-1]
		sc.resFree = sc.resFree[:n-1]
		clear(res.Asleep)
		clear(res.AwakeSeen)
		return res
	}
	return newResult()
}

func (sc *rectScratch) getStops() []geom.Point {
	if n := len(sc.stopFree); n > 0 {
		s := sc.stopFree[n-1]
		sc.stopFree = sc.stopFree[:n-1]
		return s[:0]
	}
	return nil
}

// Recycle returns a Result obtained from Rect to the engine's exploration
// pool. Callers that are done with a result — typically right after copying
// the sightings they need — recycle it so the next exploration reuses its
// maps; the result must not be used after.
func Recycle(p *sim.Proc, res *Result) {
	if res == nil {
		return
	}
	sc := scratchOf(p.Engine())
	sc.resFree = append(sc.resFree, res)
}

func (res *Result) absorb(snap sim.Snapshot) {
	for _, s := range snap.Asleep {
		res.Asleep[s.ID] = s.Pos
	}
	for _, s := range snap.Awake {
		res.AwakeSeen[s.ID] = s.Pos
	}
}

// runPlan drives one robot through pl, looking at every stop, then moves it
// to dest. Budget exhaustion aborts the remaining stops but still reports
// what was seen; the error is returned alongside.
func runPlan(p *sim.Proc, pl Plan, dest geom.Point, res *Result) error {
	for _, stop := range pl.Stops {
		if err := p.MoveTo(stop); err != nil {
			return err
		}
		res.absorb(p.Look())
	}
	return p.MoveTo(dest)
}

// Rect explores rectangle r with the caller plus the passive awake team
// members in memberIDs (all co-located with the caller), implementing
// Lemma 1: the rectangle is split into k = 1+len(memberIDs) horizontal
// strips, each robot sweeps one strip, and everyone meets at dest. The call
// returns when the whole team has gathered at dest with merged knowledge.
//
// Team members must be awake and co-located with the caller; they run
// temporary processes and are passive again (parked at dest) on return.
func Rect(p *sim.Proc, memberIDs []int, r geom.Rect, dest geom.Point) (*Result, error) {
	metric := p.Engine().Metric()
	if len(memberIDs) == 0 {
		// Lemma 1 with k = 1 degenerates to a single sweep of r itself
		// (HStrips(1) returns r bit-for-bit), and a one-party barrier
		// releases its arriver immediately, so its only observable effect is
		// the trace event. The solo path therefore plans straight over r out
		// of the engine's pooled buffers and touches the barrier machinery
		// only when a trace sink is listening; stops and looks are
		// bit-identical to the general path.
		e := p.Engine()
		sc := scratchOf(e)
		res := sc.getResult()
		var key string
		if e.Tracing() {
			key = sc.barrierKey(p)
		}
		pl := planRectInto(r, geom.MetricOrL2(metric).InscribedSquare(), sc.getStops())
		err := runPlan(p, pl, dest, res)
		sc.stopFree = append(sc.stopFree, pl.Stops)
		if e.Tracing() {
			p.Barrier(key, 1)
		}
		return res, err
	}
	k := 1 + len(memberIDs)
	strips := r.HStrips(k)
	key := scratchOf(p.Engine()).barrierKey(p)
	results := make([]*Result, k)
	errs := make([]error, k)
	for i, id := range memberIDs {
		i, id := i, id
		results[i+1] = newResult()
		p.Engine().Spawn(id, func(q *sim.Proc) {
			errs[i+1] = runPlan(q, PlanRectIn(metric, strips[i+1]), dest, results[i+1])
			q.Barrier(key, k)
		})
	}
	results[0] = newResult()
	errs[0] = runPlan(p, PlanRectIn(metric, strips[0]), dest, results[0])
	p.Barrier(key, k)
	merged := newResult()
	var firstErr error
	for i, res := range results {
		for id, pos := range res.Asleep {
			merged.Asleep[id] = pos
		}
		for id, pos := range res.AwakeSeen {
			merged.AwakeSeen[id] = pos
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return merged, firstErr
}

// SpiralPlan returns snapshot stops along an Archimedean spiral under
// Euclidean looks; see SpiralPlanIn.
func SpiralPlan(center geom.Point, maxR float64) Plan {
	return SpiralPlanIn(nil, center, maxR)
}

// SpiralPlanIn returns snapshot stops along an Archimedean spiral r = a·θ,
// starting at the origin `center`, out to radius maxR, with radius-1 looks
// measured under metric m. Unlike the zigzag lattice, stops on adjacent
// spiral windings are not aligned, so under ℓ2 the winding pitch and arc
// step are both 1 (not √2): a point midway between windings is then at
// Euclidean distance ≤ √(0.5²+0.5²) ≈ 0.71 < 1 from some stop. Under other
// metrics the worst-case offset square is rotated relative to the metric's
// unit ball, so the safe generalization scales the pitch by 1/Stretch —
// the midway point is then within metric distance Stretch·(pitch/√2) =
// 1/√2 < 1 of some stop, closing the ℓ1 coverage gap the ℓ2-calibrated
// pitch left open. For metrics that dominate ℓ2 nowhere (Stretch = 1: ℓ2
// itself, ℓ∞, every ℓp with p ≥ 2) the plan is unchanged. This is the
// classic Θ(D²)-cost discovery trajectory for a single robot.
func SpiralPlanIn(m geom.Metric, center geom.Point, maxR float64) Plan {
	if maxR <= 0 {
		return Plan{Stops: []geom.Point{center}}
	}
	pitch := 1.0 / geom.MetricOrL2(m).Stretch()
	a := pitch / (2 * math.Pi)
	stops := []geom.Point{center}
	theta := 0.0
	for {
		r := a * theta
		if r > maxR {
			break
		}
		stops = append(stops, center.Add(geom.Pt(r*math.Cos(theta), r*math.Sin(theta))))
		// Advance θ so the arc step is ≈ pitch (ds ≈ √(r²+a²)·dθ).
		ds := math.Sqrt(r*r + a*a)
		theta += pitch / ds
	}
	return Plan{Stops: stops}
}

// Spiral drives robot p along a spiral from its current position until it
// sees a sleeping robot (returning its sighting), the spiral exceeds maxR, or
// the budget runs out. found is false in the latter two cases. The spiral's
// winding pitch follows the engine's metric (SpiralPlanIn), so discovery
// coverage holds under non-Euclidean norms too.
func Spiral(p *sim.Proc, maxR float64) (sim.Sighting, bool, error) {
	pl := SpiralPlanIn(p.Engine().Metric(), p.Self().Pos(), maxR)
	for _, stop := range pl.Stops {
		if err := p.MoveTo(stop); err != nil {
			return sim.Sighting{}, false, err
		}
		snap := p.Look()
		if len(snap.Asleep) > 0 {
			return snap.Asleep[0], true, nil
		}
	}
	return sim.Sighting{}, false, nil
}
