package dftp

import (
	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// AGrid is the minimal-energy algorithm of §8.1 (Theorem 4): the plane is
// partitioned into squares of width 2ℓ; the source wakes its own square, and
// every newly woken generation wakes the 8 adjacent squares of its square on
// a fixed synchronized schedule. Each robot moves only during its own round,
// so the per-robot energy is O(ℓ²).
type AGrid struct{}

// Name implements Algorithm.
func (AGrid) Name() string { return "AGrid" }

// gridSlotWork returns t(ℓ): a guaranteed upper bound on one
// explore-and-wake of a width-R square with this codebase's constants:
// ≤ √2R corner entry + R²/√2+3R sweep + √2R to center + 12R wake tree,
// bounded by R² + 20R (the paper's R² + (10+√2)R with our slack).
func gridSlotWork(r float64) float64 { return r*r + 20*r }

// Install implements Algorithm. The run state lives in the engine's scratch
// stash, so on a pooled engine (arena-backed serving) a repeat AGrid job
// reuses the previous run's registry, report, participant handlers, and
// wake-tree buffers instead of rebuilding them.
func (AGrid) Install(e *sim.Engine, tup Tuple) *Report {
	g := sim.ScratchOf(e, "dftp.agrid", func() *gridRun {
		g := &gridRun{}
		g.run = g.runParticipant
		return g
	})
	r := 2 * tup.Ell
	g.reset(e, r, gridSlotWork(r))
	e.SpawnH(sim.SourceID, g)
	return &g.rep
}

// gridRun is the shared state of one AGrid execution. On a pooled engine
// the same gridRun serves every AGrid run of that engine: reset rewinds the
// per-run state and all the amortized storage (registry value slices, the
// participant-handler cache, the wake staging buffer) carries over.
type gridRun struct {
	schedule // cells of width R = 2ℓ, work bound t(ℓ)
	// ids stages one exploreWake's wake list. It is filled and handed to
	// wakeup.WakeAsleep with no yield in between (WakeAsleep copies what it
	// needs before it moves), so concurrent explorers on the same engine
	// never see each other's staging.
	ids []int
}

// RunProc is the source program (sim.Handler): explore and wake its own
// square, handing the woken robots round 1.
func (g *gridRun) RunProc(p *sim.Proc) {
	s := geom.GridCell(p.Self().Pos(), g.r)
	g.exploreWake(p, s, g.cont(1))
	if p.Now() > g.t+geom.Eps {
		g.rep.miss("round 0 overran t(ℓ): %.4g > %.4g", p.Now(), g.t)
	}
}

// runParticipant is the body run by every robot woken during round k-1:
// visit the 8 adjacent squares of the home square in counter-clockwise
// order; at each synchronized work deadline the lowest-id participant of the
// home square explores and wakes the target square.
func (g *gridRun) runParticipant(k int, p *sim.Proc) {
	g.rep.sawRound(k)
	home := geom.GridCell(p.Self().InitPos(), g.r)
	g.register(k, home, p.ID())
	adj := home.Adjacent8()
	for i, target := range adj {
		if err := p.MoveTo(target.LowerLeft()); err != nil {
			g.rep.miss("round %d corner move: %v", k, err)
			return
		}
		d := g.workDeadline(k, i+1)
		if p.Now() > d+geom.Eps {
			g.rep.miss("robot %d late for round %d slot %d: %.4g > %.4g",
				p.ID(), k, i+1, p.Now(), d)
		}
		p.WaitUntil(d)
		if g.team(k, home)[0] == p.ID() {
			g.exploreWake(p, target, g.cont(k+1))
		}
	}
}

// exploreWake is Corollary 1's explore-and-wake of one grid square: sweep it
// from its lower-left corner, then wake every sleeping robot belonging to
// the square with a wake-up tree, attaching cont to each woken robot.
func (g *gridRun) exploreWake(p *sim.Proc, s geom.Square, cont func(*sim.Proc)) {
	if err := p.MoveTo(s.LowerLeft()); err != nil {
		g.rep.miss("explore entry: %v", err)
		return
	}
	seen, err := explore.Rect(p, nil, s.Rect(), s.Center)
	if err != nil {
		g.rep.miss("explore: %v", err)
		return
	}
	// Sweeps see up to distance 1 beyond the square; only robots whose cell
	// is this square belong to this wake-up tree (the neighbor's explorer
	// owns the rest).
	owns := g.cellAdmit(s)
	g.ids = g.ids[:0]
	for _, id := range seen {
		if owns(p.Engine().Robot(id).InitPos()) {
			g.ids = append(g.ids, id)
		}
	}
	if err := wakeup.WakeAsleep(p, g.ids, cont); err != nil {
		g.rep.miss("propagate: %v", err)
	}
}
