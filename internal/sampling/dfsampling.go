package sampling

import (
	"slices"

	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// Seed is a DFSampling start position. AsleepID names the sleeping robot at
// the position (recruited if the seed becomes a sample); it is -1 when the
// position carries no sleeping robot (the source position, or the initial
// position of an already-awake robot). Robots that share a position are
// separate seeds, and SortSeeds puts the lowest id first.
type Seed struct {
	Pos      geom.Point
	AsleepID int
}

// Request parameterizes one DFSampling run.
type Request struct {
	// Square is the sampled region S: samples and DFS candidates are
	// restricted to it, and it orders the seeds (Sort(X)).
	Square geom.Square
	// Ell is ℓ. Samples are pairwise > ℓ apart; the DFS hops ≤ 2ℓ.
	Ell float64
	// RecruitTarget, when positive, stops the run once that many robots
	// have been recruited (case |P′| = 4ℓ of Lemma 5). ASeparator uses it
	// to fill teams to 4ℓ counting members that already have an origin in
	// the region. Zero or negative disables the cap.
	RecruitTarget int
	// Seeds are the DFS start positions X, unordered; Run sorts them in
	// place (SortSeeds).
	Seeds []Seed
	// Known seeds the discovery state: the ids of robots already known to
	// the team, typically from a prior Explore of sep(S), ascending and
	// each once. Run reads the list and never writes through it.
	Known []int
	// Admit, when non-nil, restricts sampling/recruiting to positions it
	// accepts. ASeparator passes the sub-square assignment predicate so
	// sibling teams never race to wake the same boundary robot. Positions
	// failing Admit are still recorded as discoveries.
	Admit func(geom.Point) bool
	// NoTeamGrowth keeps recruits out of the exploring team (they are still
	// woken and escorted). The paper's O(ℓ²log k) bound relies on recruits
	// speeding up subsequent ball sweeps; this flag exists for the ablation
	// that quantifies that effect.
	NoTeamGrowth bool
}

// wantMore reports whether the run should continue sampling.
func (r *Request) wantMore(recruits int) bool {
	return r.RecruitTarget <= 0 || recruits < r.RecruitTarget
}

// Outcome reports a completed DFSampling.
type Outcome struct {
	// Samples is P′, in sampling order.
	Samples []geom.Point
	// Recruits are the ids of robots awakened (and escorted) by this run.
	Recruits []int
	// Discovered lists the ids of every robot known when the run ended:
	// Known, the seeds' sleeping robots and every sleeping robot a ball
	// sweep saw, ascending and each once. It is a fresh list the caller
	// owns; whoever it is handed on to reads it and never writes through
	// it.
	Discovered []int
	// Covered is Lemma 5's case (2): the run exhausted all branches before
	// reaching any target, so every admitted robot of S is within ℓ of a
	// sample and Discovered holds all of P ∩ S reachable from the seeds.
	Covered bool
	// Members is the team roster after recruiting: the input members plus
	// Recruits, all co-located with the leader. It extends the caller's
	// member list, clipped to its length so that a recruit's append never
	// writes into the caller's storage; with no recruit it is that list.
	Members []int
}

// Run executes DFSampling with the calling process as team leader and
// members as co-located passive teammates. Newly recruited robots join the
// team immediately and speed up subsequent ball explorations (Lemma 5's
// O(ℓ² log |P′|) effect). On budget exhaustion the run returns what it has
// with the error.
func Run(p *sim.Proc, members []int, req Request) (Outcome, error) {
	e := p.Engine()
	metric := e.Metric()
	out := Outcome{Discovered: make([]int, 0, len(req.Known)+len(req.Seeds))}
	out.Discovered = append(out.Discovered, req.Known...)
	for _, s := range req.Seeds {
		if s.AsleepID >= 0 {
			out.Discovered = append(out.Discovered, s.AsleepID)
		}
	}
	out.Discovered = explore.SortIDs(out.Discovered)
	out.Members = slices.Clip(members)

	// asleep is the team's belief: robots discovered asleep and not yet
	// recruited by this run. Region exclusivity keeps it exact, so it is
	// never re-read from robot state: a recruit whose wake was dropped
	// stays recruited.
	asleep := make([]int, 0, len(out.Discovered))
	for _, id := range out.Discovered {
		if e.Robot(id).State() == sim.Asleep {
			asleep = append(asleep, id)
		}
	}

	SortSeeds(req.Square, req.Seeds)

	region := req.Square.Rect()
	admit := req.Admit
	if admit == nil {
		admit = region.Contains
	}

	farFromSamples := func(q geom.Point) bool {
		for _, s := range out.Samples {
			if geom.WithinIn(metric, s, q, req.Ell) {
				return false
			}
		}
		return true
	}

	// sweepBall sweeps B(cur, 2ℓ) ∩ S with the whole team and returns to
	// cur, merging discoveries.
	sweepBall := func(cur geom.Point) error {
		ball := geom.DiskAt(cur, 2*req.Ell).BoundingSquare().Rect()
		clip := geom.Rect{
			Min: geom.Pt(max(ball.Min.X, region.Min.X), max(ball.Min.Y, region.Min.Y)),
			Max: geom.Pt(min(ball.Max.X, region.Max.X), min(ball.Max.Y, region.Max.Y)),
		}
		if clip.Min.X > clip.Max.X || clip.Min.Y > clip.Max.Y {
			return nil
		}
		sweepers := out.Members
		if req.NoTeamGrowth {
			sweepers = members // ablation: only the original team sweeps
		}
		seen, err := explore.Rect(p, sweepers, clip, cur)
		if err != nil {
			return err
		}
		known := len(out.Discovered)
		for _, id := range seen {
			if _, ok := slices.BinarySearch(out.Discovered[:known], id); !ok {
				out.Discovered = append(out.Discovered, id)
				asleep = append(asleep, id)
			}
		}
		slices.Sort(out.Discovered)
		return nil
	}

	// addSample moves the team to q, records the sample, and recruits the
	// sleeping robot id there if any. While the run wants more, it then
	// sweeps the sample's ball; that is the ball's only sweep, so
	// backtracking to q costs only moves, per the Lemma 5 analysis.
	addSample := func(q geom.Point, id int) error {
		if err := p.Escort(out.Members, q); err != nil {
			return err
		}
		out.Samples = append(out.Samples, q)
		if i := slices.Index(asleep, id); i >= 0 {
			p.Wake(id, nil) // recruited: passive team member
			asleep = slices.Delete(asleep, i, i+1)
			out.Recruits = append(out.Recruits, id)
			out.Members = append(out.Members, id)
		}
		if !req.wantMore(len(out.Recruits)) {
			return nil
		}
		return sweepBall(q)
	}

	// nextCandidate picks the sampling candidate reachable from cur: a
	// discovered sleeping robot in S within 2ℓ of cur and > ℓ from every
	// sample; nearest first, then lowest id, so the pick is unique.
	nextCandidate := func(cur geom.Point) (best int, bestPos geom.Point, ok bool) {
		bestD := 0.0
		for _, id := range asleep {
			pos := e.Robot(id).InitPos()
			if !admit(pos) {
				continue
			}
			d := metric.Dist(cur, pos)
			if d > 2*req.Ell+geom.Eps {
				continue
			}
			if ok && (d > bestD || d == bestD && id > best) {
				continue
			}
			if !farFromSamples(pos) {
				continue
			}
			best, bestPos, bestD, ok = id, pos, d, true
		}
		return best, bestPos, ok
	}

	var stack []geom.Point
	for _, seed := range req.Seeds {
		if !req.wantMore(len(out.Recruits)) {
			break
		}
		if !admit(seed.Pos) {
			continue // assigned to a sibling region
		}
		if !farFromSamples(seed.Pos) {
			continue // B_seed(ℓ) already covered
		}
		if err := addSample(seed.Pos, seed.AsleepID); err != nil {
			return out, err
		}
		// Depth-first search from this seed over the 2ℓ-disk graph.
		stack = append(stack[:0], seed.Pos)
		for len(stack) > 0 && req.wantMore(len(out.Recruits)) {
			id, pos, ok := nextCandidate(stack[len(stack)-1])
			if !ok {
				// Backtrack one hop.
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					if err := p.Escort(out.Members, stack[len(stack)-1]); err != nil {
						return out, err
					}
				}
				continue
			}
			if err := addSample(pos, id); err != nil {
				return out, err
			}
			stack = append(stack, pos)
		}
	}
	out.Covered = req.wantMore(len(out.Recruits))
	return out, nil
}
