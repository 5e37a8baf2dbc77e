package dftp

import (
	"fmt"
	"math"
	"sort"

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

// Install implements Algorithm.
func (AWave) Install(e *sim.Engine, tup Tuple) *Report {
	rep := &Report{}
	w := &waveRun{eng: e, rep: rep, tup: tup, ell: waveEll(tup.Ell)}
	r := waveWidth(tup.Ell)
	w.reset(e, r, waveSlotWork(r, tup.Ell))
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		s := geom.GridCell(p.Self().Pos(), w.r)
		admit := w.cellAdmit(s)
		ctx := &sepCtx{
			eng:  e,
			tup:  w.sepTuple(),
			rep:  rep,
			cont: w.participant(1),
		}
		terminal := ctx.runFromSource(p, s, admit)
		if p.Now() > w.t+geom.Eps {
			rep.miss("round 0 overran t(R): %.4g > %.4g", p.Now(), w.t)
		}
		if terminal {
			// The source helps the first wave like any other awake robot.
			w.participant(1)(p)
		}
	})
	return rep
}

// waveRun is the shared state of one AWave execution.
type waveRun struct {
	schedule // cells of width R, work bound t(R)
	eng      *sim.Engine
	rep      *Report
	tup      Tuple
	ell      float64 // max(ℓ, 4)
}

// sepTuple is the tuple handed to the inner ASeparator executions: the wave
// parameter ℓ and the square's own radius.
func (w *waveRun) sepTuple() Tuple {
	return Tuple{Ell: w.ell, Rho: w.r, N: w.tup.N}
}

// gatherDeadline is when a round-k team, gathered at its home cell's
// lower-left corner, is read.
func (w *waveRun) gatherDeadline(k int) float64 { return w.roundStart(k) + 0.5*w.slotW }

// participant returns the handler run by every robot woken during round k-1:
// gather at the home square's lower-left corner; if the gathered team has at
// least 4ℓ robots, its lowest-id member leads it through the 8 adjacent
// squares, waking each with ASeparator.
func (w *waveRun) participant(k int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		w.rep.sawRound(k)
		home := geom.GridCell(p.Self().InitPos(), w.r)
		w.register(k, home, p.ID())
		corner := home.LowerLeft()
		if err := p.MoveTo(corner); err != nil {
			w.rep.miss("round %d gather move: %v", k, err)
			return
		}
		gd := w.gatherDeadline(k)
		if p.Now() > gd+geom.Eps {
			w.rep.miss("robot %d late gathering for round %d: %.4g > %.4g",
				p.ID(), k, p.Now(), gd)
		}
		p.WaitUntil(gd)
		team := append([]int(nil), w.team(k, home)...)
		sort.Ints(team)
		if len(team) < 4*w.sepTuple().L() {
			return // Tr too small to act (per §8.2); everyone stops.
		}
		if team[0] != p.ID() {
			return // passive member: the leader escorts this robot from here on
		}
		w.leadSlots(p, k, home, team[1:])
	}
}

// leadSlots drives a wave team through the 8 adjacent squares of home.
func (w *waveRun) leadSlots(p *sim.Proc, k int, home geom.Square, members []int) {
	members = w.present(p, members)
	imported := map[int]bool{p.ID(): true}
	for _, id := range members {
		imported[id] = true
	}
	for i, target := range home.Adjacent8() {
		var err error
		members, err = p.Escort(members, target.LowerLeft())
		if err != nil {
			w.rep.miss("round %d slot %d corner escort: %v", k, i+1, err)
			return
		}
		d := w.workDeadline(k, i+1)
		if p.Now() > d+geom.Eps {
			w.rep.miss("round %d slot %d late: %.4g > %.4g", k, i+1, p.Now(), d)
		}
		p.WaitUntil(d)
		members, err = p.Escort(members, target.Center)
		if err != nil {
			w.rep.miss("round %d slot %d center escort: %v", k, i+1, err)
			return
		}
		ctx := &sepCtx{
			eng:      w.eng,
			tup:      w.sepTuple(),
			rep:      w.rep,
			cont:     w.participant(k + 1),
			imported: imported,
			wg:       w.eng.NewWaitGroup(),
		}
		ctx.nonce = fmt.Sprintf("wave%d.%d@%d", k, i, p.ID())
		ctx.round(p, members, target, w.cellAdmit(target), nil, 1)
		ctx.wg.Wait(p)
		// The imported team reassembles at the center of the target square
		// (reorganize leaves it there) before heading to the next corner.
	}
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
