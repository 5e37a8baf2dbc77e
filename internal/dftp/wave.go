package dftp

import (
	"fmt"
	"math"
	"slices"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// AWave is the energy-efficient wave algorithm of §8.2 (Theorem 5): the
// AGrid wave structure with squares of width 8ℓ²log₂ℓ, each square woken by
// a full ASeparator execution seeded with a team of ≥ 4ℓ imported robots.
// Energy per robot is O(ℓ²logℓ) and the makespan O(ξℓ + ℓ²log(ξℓ/ℓ)).
type AWave struct{}

// Name implements Algorithm.
func (AWave) Name() string { return "AWave" }

// waveEll applies the paper's ℓ ← max(ℓ, 4) adjustment.
func waveEll(ell float64) float64 { return math.Max(ell, 4) }

// waveWidth returns the square width R = 8ℓ²log₂ℓ (with ℓ ≥ 4, so log₂ℓ ≥ 2).
func waveWidth(ell float64) float64 {
	l := waveEll(ell)
	return 8 * l * l * math.Log2(l)
}

// AWaveCellWidth exposes the wave grid cell width R = 8·max(ℓ,4)²·log₂max(ℓ,4)
// for harness-level rate computations.
func AWaveCellWidth(ell float64) float64 { return waveWidth(ell) }

// AWaveSlotWidth exposes the wave schedule's slot width t(R) + 3R.
func AWaveSlotWidth(ell float64) float64 {
	r := waveWidth(ell)
	return waveSlotWork(r, ell) + 3*r
}

// waveSlotWork returns t(R): a calibrated upper bound on one ASeparator
// execution inside a width-R square starting from a co-located team of 4ℓ,
// covering the whole recursion subtree. ASeparator's cost is
// O(R + ℓ²log(R/ℓ)); the constants below were calibrated against the test
// suite with ample margin (deadline misses are detected and reported).
func waveSlotWork(r, ell float64) float64 {
	l := waveEll(ell)
	return 12*r + 60*l*l*math.Log2(r/l+2)
}

// Install implements Algorithm. As AGrid's, the run state lives in the
// engine's scratch stash, so a pooled engine reuses it from job to job.
func (AWave) Install(e *sim.Engine, tup Tuple) *Report {
	w := sim.ScratchOf(e, "dftp.awave", func() *waveRun {
		w := &waveRun{eng: e}
		w.run = w.runParticipant
		return w
	})
	r := waveWidth(tup.Ell)
	w.reset(e, r, waveSlotWork(r, tup.Ell))
	w.sep = Tuple{Ell: waveEll(tup.Ell), Rho: r, N: tup.N}
	e.SpawnH(sim.SourceID, w)
	return &w.rep
}

// waveRun is the shared state of one AWave execution.
type waveRun struct {
	schedule // cells of width R, work bound t(R)
	eng      *sim.Engine
	// sep is the tuple handed to the inner ASeparator executions: the wave
	// parameter max(ℓ, 4) and the square's own radius.
	sep Tuple
}

// RunProc is the source program (sim.Handler): wake its own square with
// ASeparator, then help the first wave if that left its robot free.
func (w *waveRun) RunProc(p *sim.Proc) {
	s := geom.GridCell(p.Self().Pos(), w.r)
	ctx := &sepCtx{
		eng:  w.eng,
		tup:  w.sep,
		rep:  &w.rep,
		cont: w.cont(1),
	}
	terminal := ctx.runFromSource(p, s, w.cellAdmit(s))
	if p.Now() > w.t+geom.Eps {
		w.rep.miss("round 0 overran t(R): %.4g > %.4g", p.Now(), w.t)
	}
	if terminal {
		// The source helps the first wave like any other awake robot.
		w.runParticipant(1, p)
	}
}

// gatherDeadline is when a round-k team, gathered at its home cell's
// lower-left corner, is read.
func (w *waveRun) gatherDeadline(k int) float64 { return w.roundStart(k) + 0.5*w.slotW }

// runParticipant is the body run by every robot woken during round k-1:
// gather at the home square's lower-left corner; if the gathered team has at
// least 4ℓ robots, its lowest-id member leads it through the 8 adjacent
// squares, waking each with ASeparator.
func (w *waveRun) runParticipant(k int, p *sim.Proc) {
	w.rep.sawRound(k)
	home := geom.GridCell(p.Self().InitPos(), w.r)
	w.register(k, home, p.ID())
	if err := p.MoveTo(home.LowerLeft()); err != nil {
		w.rep.miss("round %d gather move: %v", k, err)
		return
	}
	gd := w.gatherDeadline(k)
	if p.Now() > gd+geom.Eps {
		w.rep.miss("robot %d late gathering for round %d: %.4g > %.4g",
			p.ID(), k, p.Now(), gd)
	}
	p.WaitUntil(gd)
	team := w.team(k, home)
	if len(team) < 4*w.sep.L() {
		return // Tr too small to act (per §8.2); everyone stops.
	}
	if team[0] != p.ID() {
		return // passive member: the leader escorts this robot from here on
	}
	w.leadSlots(p, k, home, team[1:])
}

// leadSlots drives a wave team through the 8 adjacent squares of home.
func (w *waveRun) leadSlots(p *sim.Proc, k int, home geom.Square, members []int) {
	members = w.present(p, members)
	for i, target := range home.Adjacent8() {
		if err := p.Escort(members, target.LowerLeft()); err != nil {
			w.rep.miss("round %d slot %d corner escort: %v", k, i+1, err)
			return
		}
		members = w.escorted(p, members)
		d := w.workDeadline(k, i+1)
		if p.Now() > d+geom.Eps {
			w.rep.miss("round %d slot %d late: %.4g > %.4g", k, i+1, p.Now(), d)
		}
		p.WaitUntil(d)
		if err := p.Escort(members, target.Center); err != nil {
			w.rep.miss("round %d slot %d center escort: %v", k, i+1, err)
			return
		}
		members = w.escorted(p, members)
		ctx := &sepCtx{
			eng:  w.eng,
			tup:  w.sep,
			rep:  &w.rep,
			cont: w.cont(k + 1),
			wg:   w.eng.NewWaitGroup(),
		}
		if w.eng.Tracing() {
			ctx.nonce = fmt.Sprintf("wave%d.%d@%d", k, i, p.ID())
		}
		// The team's origins lie in home, which the target's cellAdmit
		// rejects, so the execution leaves the team to this leader.
		ctx.round(p, members, target, w.cellAdmit(target), nil, 1)
		ctx.wg.Wait(p)
		// The team reassembles at the center of the target square
		// (reorganize leaves it there) before heading to the next corner.
	}
}

// escorted keeps, in place, the members an escort took along: those awake,
// neither halted nor in a crash outage, and beside the leader.
func (w *waveRun) escorted(p *sim.Proc, members []int) []int {
	at := p.Self().Pos()
	return slices.DeleteFunc(members, func(id int) bool {
		r := w.eng.Robot(id)
		return r.State() != sim.Awake || r.Halted() || w.eng.Down(id) || !r.Pos().Eq(at)
	})
}

// present filters the member list to robots actually co-located with the
// leader, dropping stragglers that registered but failed to arrive (each
// such drop is a schedule violation reported elsewhere).
func (w *waveRun) present(p *sim.Proc, members []int) []int {
	out := make([]int, 0, len(members))
	for _, id := range members {
		if w.eng.Robot(id).Pos().Eq(p.Self().Pos()) {
			out = append(out, id)
		} else {
			w.rep.miss("robot %d missing at gather of leader %d", id, p.ID())
		}
	}
	return out
}
