// Package explore implements the paper's exploration procedures:
//
//   - Lemma 1's boustrophedon (zigzag) rectangle sweep with √2 row pitch and
//     √2 snapshot pitch, for a single robot or a team of k robots exploring
//     k horizontal strips in parallel, in time O(wh/k + w + h);
//   - the Archimedean spiral search used as the single-robot discovery
//     baseline (the Θ(D²) cow-path argument from the introduction).
//
// Planning is pure (stop lattices and waypoint lists), execution runs on
// the simulator.
package explore

import (
	"fmt"
	"math"
	"slices"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// Plan is a deterministic exploration trajectory: the robot visits Stops in
// order and performs a Look at each.
type Plan struct {
	Stops []geom.Point
}

// Lattice is the stop lattice of Lemma 1's rectangle sweep: Rows rows of
// Cols stops each, walked in serpentine order (rows bottom-up, even rows
// left to right, odd rows right to left) so consecutive stops stay close.
// Stops are computed from their (row, col) on demand, so a lattice holds
// O(1) memory whatever the rectangle's area.
type Lattice struct {
	Rows, Cols int
	min        geom.Point
	dx, dy     float64
}

// RectLattice returns the sweep lattice covering rectangle r with radius-1
// looks under metric m (nil means ℓ2): every point of r is within distance
// 1 of some stop. The pitch is the side of the largest axis-aligned square
// inscribed in m's unit ball (√2 under ℓ2, 1 under ℓ1, 2 under ℓ∞), so a
// tighter ball means a finer lattice and a longer sweep. A degenerate
// rectangle yields a single stop at its center.
func RectLattice(m geom.Metric, r geom.Rect) Lattice {
	pitch := geom.MetricOrL2(m).InscribedSquare()
	w, h := r.Width(), r.Height()
	nx := int(math.Ceil(w / pitch))
	if nx < 1 {
		nx = 1
	}
	ny := int(math.Ceil(h / pitch))
	if ny < 1 {
		ny = 1
	}
	return Lattice{Rows: ny, Cols: nx, min: r.Min, dx: w / float64(nx), dy: h / float64(ny)}
}

// Stop returns the col-th stop the sweep visits on row row.
func (l Lattice) Stop(row, col int) geom.Point {
	if row%2 == 1 {
		col = l.Cols - 1 - col // serpentine
	}
	return geom.Pt(l.min.X+(float64(col)+0.5)*l.dx, l.min.Y+(float64(row)+0.5)*l.dy)
}

// PlanRect returns the single-robot zigzag plan covering rectangle r under
// Euclidean looks: RectLattice's stops, materialized in walk order.
func PlanRect(r geom.Rect) Plan {
	l := RectLattice(nil, r)
	stops := make([]geom.Point, 0, l.Rows*l.Cols)
	for row := 0; row < l.Rows; row++ {
		for col := 0; col < l.Cols; col++ {
			stops = append(stops, l.Stop(row, col))
		}
	}
	return Plan{Stops: stops}
}

// LengthIn returns the plan's travel length under metric m, starting from
// `from` and ending at `to` (entry and exit legs included).
func (pl Plan) LengthIn(m geom.Metric, from, to geom.Point) float64 {
	mm := geom.MetricOrL2(m)
	if len(pl.Stops) == 0 {
		return mm.Dist(from, to)
	}
	return mm.Dist(from, pl.Stops[0]) + geom.PathLengthIn(mm, pl.Stops) +
		mm.Dist(pl.Stops[len(pl.Stops)-1], to)
}

// CoversIn reports whether every one of the probe points is within metric
// distance 1 of some stop; used by the property tests as the Lemma 1
// validity check.
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

// rectScratch is the per-engine exploration pool: the list every Rect
// returns and recycled team records. It lives in the engine's scratch
// stash, so a pooled engine's repeated runs settle into allocation-free
// exploration.
type rectScratch struct {
	// seen backs the list Rect returns: the merged ids of the latest sweep
	// to return, refilled by the next.
	seen     []int
	teamFree []*team
	// keyseq disambiguates meeting labels (several explorations can share
	// an (ID, Now) pair). It counts within one traced run and rewinds with
	// the engine, so the labels depend only on the run.
	keyseq uint64
}

func scratchOf(e *sim.Engine) *rectScratch {
	return sim.ScratchOf(e, "explore.rect", func() *rectScratch { return &rectScratch{} })
}

// ResetRun implements sim.RunScratch.
func (sc *rectScratch) ResetRun() { sc.keyseq = 0 }

// label names one exploration's meeting on the trace, and is "" when the
// engine does not trace.
func (sc *rectScratch) label(p *sim.Proc) string {
	if !p.Engine().Tracing() {
		return ""
	}
	sc.keyseq++
	return fmt.Sprintf("explore/%d/%.9f/%d", p.ID(), p.Now(), sc.keyseq)
}

// runPlan drives one robot through r's sweep lattice, looking at every
// stop, then moves it to dest. Each Look's ids are appended to *seen before
// the next move, repeats included; Rect sorts them. Budget exhaustion
// aborts the remaining stops but still reports what was seen; the error is
// returned alongside.
func runPlan(p *sim.Proc, r geom.Rect, dest geom.Point, seen *[]int) error {
	l := RectLattice(p.Engine().Metric(), r)
	for row := 0; row < l.Rows; row++ {
		for col := 0; col < l.Cols; col++ {
			if err := p.MoveTo(l.Stop(row, col)); err != nil {
				return err
			}
			*seen = append(*seen, p.Look()...)
		}
	}
	return p.MoveTo(dest)
}

// team is the per-call state of one sweep, pooled on the engine's
// exploration scratch: the barrier the team meets at and one record per
// strip. A member's process body is its strip record, like wakeup's
// propHandler slab, so spawning k members captures no closures.
type team struct {
	sim.Barrier
	r      geom.Rect
	dest   geom.Point
	label  string
	strips []strip // strips[0] is the caller's; member i sweeps strips[i]
	// arrived counts the members that finished their strip, and so wrote
	// their record for the last time.
	arrived int
}

// strip is what one sweeper saw of strip i of its team's rectangle: the
// sleeping ids, repeats included, and the error that ended its sweep. The
// id list keeps its storage from call to call.
type strip struct {
	t   *team
	i   int
	ids []int
	err error
}

// RunProc implements sim.Handler for the member sweeping the strip.
// Nothing of the team record is read after the barrier: the caller may
// recycle it as soon as the barrier releases.
func (s *strip) RunProc(q *sim.Proc) {
	t := s.t
	s.err = runPlan(q, t.r.HStrip(s.i, len(t.strips)), t.dest, &s.ids)
	t.arrived++
	q.Await(&t.Barrier, t.label)
}

// Rect explores rectangle r with the caller plus the passive awake team
// members in memberIDs (all co-located with the caller), implementing
// Lemma 1: the rectangle is split into k = 1+len(memberIDs) horizontal
// strips, each robot sweeps one strip, and everyone meets at dest. A lone
// caller is a team of one, whose strip HStrip(0, 1) is r itself. The call
// returns when the whole team has gathered at dest with merged knowledge:
// the ids of the sleeping robots any of them saw, ascending and each once.
// A sleeping robot never leaves its initial position, so the engine's
// Robot(id).InitPos() is where it was seen.
//
// Team members must be awake and co-located with the caller; they run
// temporary processes and are passive again (parked at dest) on return.
//
// The returned list is the engine's own exploration buffer, like a Look's
// ids: it is valid until the next Rect on the same engine returns, by
// any process, so a caller that keeps ids across a call that can block
// (MoveTo, Escort, Await, ...) copies them first, and no caller writes
// through it. A sweep holds O(1) plan memory whatever the rectangle's area,
// and on a pooled engine it reuses its per-call state across calls and
// runs.
func Rect(p *sim.Proc, memberIDs []int, r geom.Rect, dest geom.Point) ([]int, error) {
	e := p.Engine()
	sc := scratchOf(e)
	k := 1 + len(memberIDs)
	var t *team
	if n := len(sc.teamFree); n > 0 {
		t, sc.teamFree = sc.teamFree[n-1], sc.teamFree[:n-1]
	} else {
		t = &team{}
	}
	t.r, t.dest, t.label, t.arrived = r, dest, sc.label(p), 0
	t.Need = k
	// Grow within capacity first, so strips a larger call used keep their
	// id lists.
	t.strips = t.strips[:cap(t.strips)]
	for len(t.strips) < k {
		t.strips = append(t.strips, strip{})
	}
	t.strips = t.strips[:k]
	for i := range t.strips {
		t.strips[i] = strip{t: t, i: i, ids: t.strips[i].ids[:0]}
	}
	for i, id := range memberIDs {
		e.SpawnH(id, &t.strips[i+1])
	}
	t.strips[0].err = runPlan(p, r.HStrip(0, k), dest, &t.strips[0].ids)
	p.Await(&t.Barrier, t.label)
	sc.seen = sc.seen[:0]
	var firstErr error
	for _, s := range t.strips {
		sc.seen = append(sc.seen, s.ids...)
		if s.err != nil && firstErr == nil {
			firstErr = s.err
		}
	}
	sc.seen = SortIDs(sc.seen)
	// Recycle only after a normal release: a barrier emptied by
	// ReleaseStalled under faults can free the caller while a member is
	// still sweeping into its strip record, so that call's state, barrier
	// included, goes to the GC.
	if t.arrived == len(memberIDs) {
		sc.teamFree = append(sc.teamFree, t)
	}
	return sc.seen, firstErr
}

// SortIDs sorts ids in place, ascending, drops repeats and returns the
// shortened list: the form of every list of robot ids a team knows
// (Rect's list, DFSampling's discoveries, ASeparator's known robots).
func SortIDs(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
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
// sees a sleeping robot (returning the least id of those its Look saw), the
// spiral exceeds maxR, or the budget runs out. found is false in the latter
// two cases. The spiral's winding pitch follows the engine's metric
// (SpiralPlanIn), so discovery coverage holds under non-Euclidean norms too.
func Spiral(p *sim.Proc, maxR float64) (id int, found bool, err error) {
	pl := SpiralPlanIn(p.Engine().Metric(), p.Self().Pos(), maxR)
	for _, stop := range pl.Stops {
		if err := p.MoveTo(stop); err != nil {
			return 0, false, err
		}
		if ids := p.Look(); len(ids) > 0 {
			return ids[0], true, nil
		}
	}
	return 0, false, nil
}
