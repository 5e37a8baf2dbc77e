package dftp

import (
	"math"
	"sort"

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
		return &gridRun{reg: make(map[gridKey][]int), rep: &Report{}}
	})
	g.reset(e, tup)
	e.Spawn(sim.SourceID, g.srcFn)
	return g.rep
}

type gridKey struct {
	k      int // round index
	kx, ky int // grid cell of the participants' home square
}

// gridRun is the shared state of one AGrid execution. On a pooled engine
// the same gridRun serves every AGrid run of that engine: reset rewinds the
// per-run state and all the amortized storage (registry value slices, the
// participant-handler cache, the explore/wake staging buffers) carries over.
type gridRun struct {
	eng   *sim.Engine
	rep   *Report
	r     float64 // square width R = 2ℓ
	t     float64 // per-square work bound t(ℓ)
	slotW float64 // slot width t + 3R (√2R travel plus slack)
	reg   map[gridKey][]int

	// srcFn is the source program; conts[k] is the round-k participant
	// handler. Both close over g alone — whose fields reset per run — so
	// they are built once and reused for the life of the engine, instead of
	// allocating one closure per wake.
	srcFn func(*sim.Proc)
	conts []func(*sim.Proc)
	// ids and targets stage one exploreWake's tree construction. They are
	// filled and consumed with no yield in between (the wake-tree builder
	// copies the targets), so concurrent explorers on the same engine never
	// see each other's staging.
	ids     []int
	targets []wakeup.Target
}

// reset rewinds the run state for a fresh execution over tup. Registry keys
// are retained with their value slices truncated: a repeat instance shape
// touches exactly the same (round, cell) teams, so registration allocates
// nothing; stale keys from a previous shape are never read (reads are keyed
// by the current run's home squares).
func (g *gridRun) reset(e *sim.Engine, tup Tuple) {
	g.eng = e
	g.rep.Misses = g.rep.Misses[:0]
	g.rep.Rounds = 0
	g.r = 2 * tup.Ell
	// The slot-work constants are calibrated upper bounds on ℓ2 travel at
	// unit speed; inflating them by the metric's stretch keeps them valid
	// bounds under any ℓp (1× for p ≥ 2, √2× for ℓ1 — see
	// geom.Metric.Stretch), and dividing by the swarm's slowest speed keeps
	// them valid travel-time bounds under heterogeneous profiles (÷1 — the
	// exact IEEE identity — in the homogeneous model).
	st := e.Metric().Stretch() / e.MinSpeed()
	g.t = gridSlotWork(g.r) * st
	g.slotW = g.t + 3*g.r*st
	for k, v := range g.reg {
		g.reg[k] = v[:0]
	}
	if g.srcFn == nil {
		g.srcFn = func(p *sim.Proc) {
			s := geom.GridCell(p.Self().Pos(), g.r)
			g.exploreWake(p, s, g.cont(1))
			if p.Now() > g.t+geom.Eps {
				g.rep.miss("round 0 overran t(ℓ): %.4g > %.4g", p.Now(), g.t)
			}
		}
	}
}

// cont returns the memoized participant handler for round k.
func (g *gridRun) cont(k int) func(*sim.Proc) {
	for len(g.conts) <= k {
		kk := len(g.conts)
		g.conts = append(g.conts, func(p *sim.Proc) { g.runParticipant(kk, p) })
	}
	return g.conts[k]
}

// roundStart returns t_k, the start of round k ≥ 1. Rounds are 9 slot-widths
// apart: 8 work slots plus one slack slot for travel and late wake-ups (a
// schedule deviation from the paper's 8, documented in the package comment).
func (g *gridRun) roundStart(k int) float64 {
	return g.t + 9*g.slotW*float64(k-1)
}

// workDeadline returns the start of work slot i ∈ [1,8] of round k.
func (g *gridRun) workDeadline(k, i int) float64 {
	return g.roundStart(k) + g.slotW*float64(i)
}

// register adds a participant to its (round, home-square) team and returns
// nothing; teams are read at work deadlines, strictly after every round-k
// registration (all wake-ups of round k-1 precede t_k).
func (g *gridRun) register(k int, s geom.Square, id int) {
	kx, ky := geom.GridIndex(s.Center, g.r)
	key := gridKey{k: k, kx: kx, ky: ky}
	g.reg[key] = append(g.reg[key], id)
}

func (g *gridRun) teamLeader(k int, s geom.Square) int {
	kx, ky := geom.GridIndex(s.Center, g.r)
	ids := g.reg[gridKey{k: k, kx: kx, ky: ky}]
	leader := math.MaxInt32
	for _, id := range ids {
		if id < leader {
			leader = id
		}
	}
	return leader
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
		if g.teamLeader(k, home) == p.ID() {
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
	res, err := explore.Rect(p, nil, s.Rect(), s.Center)
	if err != nil {
		explore.Recycle(p, res)
		g.rep.miss("explore: %v", err)
		return
	}
	kx, ky := geom.GridIndex(s.Center, g.r)
	ids := g.ids[:0]
	for id := range res.Asleep {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	targets := g.targets[:0]
	for _, id := range ids {
		pos := res.Asleep[id]
		// Sweeps see up to distance 1 beyond the square; only robots whose
		// cell is this square belong to this wake-up tree (the neighbor's
		// explorer owns the rest).
		if cx, cy := geom.GridIndex(pos, g.r); cx != kx || cy != ky {
			continue
		}
		if g.eng.Robot(id).State() != sim.Asleep {
			continue
		}
		targets = append(targets, wakeTarget(g.eng, id, pos))
	}
	g.ids, g.targets = ids, targets
	b := wakeup.BuilderOf(g.eng)
	tree := b.BuildIn(g.eng.Metric(), p.Self().Pos(), targets)
	explore.Recycle(p, res)
	if err := b.Propagate(p, tree, cont); err != nil {
		g.rep.miss("propagate: %v", err)
	}
}
