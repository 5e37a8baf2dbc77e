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
// maps keep capacity; they are cleared on checkout) and team records. It
// lives in the engine's scratch stash, so a pooled engine's repeated runs
// settle into allocation-free exploration.
type rectScratch struct {
	resFree  []*Result
	teamFree []*team
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

// runPlan drives one robot through r's sweep lattice, looking at every
// stop, then moves it to dest. Each snapshot is absorbed before the next
// move. Budget exhaustion aborts the remaining stops but still reports what
// was seen; the error is returned alongside.
func runPlan(p *sim.Proc, r geom.Rect, dest geom.Point, res *Result) error {
	l := RectLattice(p.Engine().Metric(), r)
	for row := 0; row < l.Rows; row++ {
		for col := 0; col < l.Cols; col++ {
			if err := p.MoveTo(l.Stop(row, col)); err != nil {
				return err
			}
			res.absorb(p.Look())
		}
	}
	return p.MoveTo(dest)
}

// team is the per-call state of one team sweep, pooled on the engine's
// exploration scratch. The member handlers live in it, like wakeup's
// propHandler slab, so spawning k members captures no closures.
type team struct {
	r       geom.Rect
	dest    geom.Point
	key     string
	results []*Result // one per strip; strip 0 is the caller's
	errs    []error
	members []member // members[i] sweeps strip i; members[0] is unused
	// arrived counts the members that finished their strip, and so wrote
	// their Result for the last time.
	arrived int
}

// member is the process body of the team member sweeping strip i.
type member struct {
	t *team
	i int
}

// RunProc implements sim.Handler. Nothing of the team record is read after
// the barrier: the caller may recycle it as soon as the barrier releases.
func (m *member) RunProc(q *sim.Proc) {
	t := m.t
	k := len(t.results)
	t.errs[m.i] = runPlan(q, t.r.HStrip(m.i, k), t.dest, t.results[m.i])
	t.arrived++
	q.Barrier(t.key, k)
}

// Rect explores rectangle r with the caller plus the passive awake team
// members in memberIDs (all co-located with the caller), implementing
// Lemma 1: the rectangle is split into k = 1+len(memberIDs) horizontal
// strips, each robot sweeps one strip, and everyone meets at dest. The call
// returns when the whole team has gathered at dest with merged knowledge.
//
// Team members must be awake and co-located with the caller; they run
// temporary processes and are passive again (parked at dest) on return.
//
// The returned Result comes from the engine's exploration pool: the caller
// owns it until it hands it back with Recycle, which it should do once it
// has copied what it needs. A sweep holds O(1) plan memory whatever the
// rectangle's area, and on a pooled engine the team path reuses its Results
// and per-call state across calls and runs.
func Rect(p *sim.Proc, memberIDs []int, r geom.Rect, dest geom.Point) (*Result, error) {
	e := p.Engine()
	sc := scratchOf(e)
	if len(memberIDs) == 0 {
		// Lemma 1 with k = 1 degenerates to a single sweep of r itself
		// (HStrip(0, 1) is r bit-for-bit), and a one-party barrier releases
		// its arriver immediately, so its only observable effect is the
		// trace event. The solo path therefore sweeps r directly and touches
		// the barrier machinery only when a trace sink is listening; stops
		// and looks are bit-identical to the general path.
		res := sc.getResult()
		var key string
		if e.Tracing() {
			key = sc.barrierKey(p)
		}
		err := runPlan(p, r, dest, res)
		if e.Tracing() {
			p.Barrier(key, 1)
		}
		return res, err
	}
	k := 1 + len(memberIDs)
	var t *team
	if n := len(sc.teamFree); n > 0 {
		t, sc.teamFree = sc.teamFree[n-1], sc.teamFree[:n-1]
	} else {
		t = &team{}
	}
	t.r, t.dest, t.key, t.arrived = r, dest, sc.barrierKey(p), 0
	t.results, t.errs = t.results[:0], t.errs[:0]
	for i := 0; i < k; i++ {
		t.results = append(t.results, sc.getResult())
		t.errs = append(t.errs, nil)
	}
	for i := len(t.members); i < k; i++ {
		t.members = append(t.members, member{t: t, i: i})
	}
	for i, id := range memberIDs {
		e.SpawnH(id, &t.members[i+1])
	}
	t.errs[0] = runPlan(p, r.HStrip(0, k), dest, t.results[0])
	p.Barrier(t.key, k)
	merged := sc.getResult()
	var firstErr error
	for i, res := range t.results {
		for id, pos := range res.Asleep {
			merged.Asleep[id] = pos
		}
		for id, pos := range res.AwakeSeen {
			merged.AwakeSeen[id] = pos
		}
		if t.errs[i] != nil && firstErr == nil {
			firstErr = t.errs[i]
		}
	}
	// Recycle only after a normal release: a barrier voided by
	// ReleaseStalled under faults can free the caller while a member is
	// still sweeping into its Result, so that call's state goes to the GC.
	if t.arrived == len(memberIDs) {
		sc.resFree = append(sc.resFree, t.results...)
		sc.teamFree = append(sc.teamFree, t)
	}
	return merged, firstErr
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
