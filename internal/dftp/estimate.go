package dftp

import (
	"math"

	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/sampling"
	"freezetag/internal/separator"
	"freezetag/internal/sim"
)

// ASeparatorAuto is the §5 (Discussion) variant of ASeparator that only
// needs an upper bound ℓ on the connectivity threshold: the source first
// computes a constant approximation ρ̂ of ρ* (EstimateRho), then runs the
// ordinary rounds on the square of width 2ρ̂. The estimation overhead is
// O(ℓ²logℓ + ρ), of the same order as ASeparator itself, so the makespan
// bound of Theorem 1 is preserved.
type ASeparatorAuto struct{}

// Name implements Algorithm.
func (ASeparatorAuto) Name() string { return "ASeparatorAuto" }

// Install implements Algorithm; tup.Rho is ignored.
func (ASeparatorAuto) Install(e *sim.Engine, tup Tuple) *Report {
	rep := &Report{}
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		est := EstimateRho(p, tup.Ell, rep)
		if est.Covered {
			// The initial sampling already discovered everything: finish
			// with a single centralized awakening (the small-ρ* regime).
			ctx := &sepCtx{eng: e, tup: tup, rep: rep}
			ctx.nonce = "auto"
			all := geom.Sq(p.Self().Pos(), 4*est.Rho+4*tup.Ell+2)
			ctx.terminalWake(p, est.Team, all.Contains, est.Known)
			return
		}
		tup.Rho = est.Rho
		S := geom.Sq(p.Self().InitPos(), 2*est.Rho)
		ctx := &sepCtx{eng: e, tup: tup, rep: rep}
		ctx.nonce = "auto"
		if err := p.Escort(est.Team, S.Center); err != nil {
			rep.miss("auto escort: %v", err)
			return
		}
		ctx.round(p, est.Team, S, S.Contains, est.Known, 1)
	})
	return rep
}

// Estimate is the outcome of EstimateRho.
type Estimate struct {
	// Rho is the estimated radius ρ̂ with ρ* ≤ ρ̂ ≤ 3ρ* (a 3-approximation,
	// §5), except in the Covered case where it is exact.
	Rho float64
	// Covered reports that the initial 4ℓ-recruitment already discovered all
	// of P (the sampling exhausted below its target), making Rho exact.
	Covered bool
	// Team is the recruited team (passive, co-located with the caller).
	Team []int
	// Known lists the ids of every sleeping robot discovered during
	// estimation, ascending and each once; whoever it is handed to reads
	// it and never writes through it.
	Known []int
}

// EstimateRho implements the §5 procedure on the calling process (the
// source): (1) recruit up to 4ℓ robots by DFSampling; (2) explore the
// ℓ-separators of squares of width ℓ·2^i for i = 1, 2, … until one is empty
// of initial positions; by Corollary 2 the whole swarm then lies inside that
// square, so its width bounds 2ρ*... and the previous non-empty separator
// witnesses ρ* ≥ ℓ·2^(i-1)/2, giving a constant-factor estimate.
func EstimateRho(p *sim.Proc, ell float64, rep *Report) Estimate {
	l4 := 4 * Tuple{Ell: ell}.L()
	// The sampling region is unbounded in the model; use a square far larger
	// than any reachable geometry (the DFS only ever visits robot positions).
	huge := geom.Sq(p.Self().InitPos(), 1e9)
	out, err := sampling.Run(p, nil, sampling.Request{
		Square:        huge,
		Ell:           ell,
		RecruitTarget: l4 - 1,
		Seeds:         []sampling.Seed{{Pos: p.Self().InitPos(), AsleepID: -1}},
	})
	if err != nil {
		rep.miss("estimate sampling: %v", err)
	}
	known := out.Discovered
	if out.Covered {
		// Everything is discovered: ρ* is exact (in the run metric).
		metric := p.Engine().Metric()
		rho := 0.0
		for _, ids := range [][]int{known, out.Members} {
			for _, id := range ids {
				if d := metric.Dist(p.Self().InitPos(), p.Engine().Robot(id).InitPos()); d > rho {
					rho = d
				}
			}
		}
		return Estimate{Rho: math.Max(rho, ell), Covered: true, Team: out.Members, Known: known}
	}

	// Doubling separator scan. The i-th square has width ℓ·2^i; explore its
	// separator with the team and stop when no initial position lies in it.
	origin := p.Self().InitPos()
	team := out.Members
	for i := 1; ; i++ {
		s := geom.Sq(origin, ell*math.Exp2(float64(i)))
		sep := separator.Of(s, ell)
		occupied := false
		// Awake robots (the team and the source) count via their origins;
		// the sweeps below look only for sleeping ones.
		for _, id := range append([]int{p.ID()}, team...) {
			if sep.Contains(p.Engine().Robot(id).InitPos()) {
				occupied = true
			}
		}
		rects := sep.Rects()
		for j, r := range rects {
			dest := s.Center
			if j < len(rects)-1 {
				dest = rects[j+1].Min
			}
			seen, err := explore.Rect(p, team, r, dest)
			if err != nil {
				rep.miss("estimate explore: %v", err)
				return Estimate{Rho: s.Width, Team: team, Known: known}
			}
			for _, id := range seen {
				if sep.Contains(p.Engine().Robot(id).InitPos()) {
					occupied = true
				}
			}
			known = explore.SortIDs(append(known, seen...))
		}
		if !occupied {
			// Empty separator: P is confined to the inside of s (Cor. 2),
			// so ρ* ≤ diag/2 ≤ width; and the scan reached width ℓ·2^i only
			// because the previous separator was occupied, witnessing
			// ρ* ≥ ℓ·2^(i-1) − ℓ. Return the width as ρ̂.
			return Estimate{Rho: s.Width, Team: team, Known: known}
		}
	}
}
