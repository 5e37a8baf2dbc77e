package sampling

import (
	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// Seed is a DFSampling start position. AsleepID names the sleeping robot at
// the position (recruited if the seed becomes a sample); it is -1 when the
// position carries no sleeping robot (the source position, or the initial
// position of an already-awake robot).
type Seed struct {
	Pos      geom.Point
	AsleepID int
}

// Request parameterizes one DFSampling run.
type Request struct {
	// Region is the sampled region S; samples and DFS candidates are
	// restricted to it.
	Region geom.Rect
	// Square is the square S used for seed ordering (Sort(X)); its Rect
	// normally equals Region.
	Square geom.Square
	// Ell is ℓ. Samples are pairwise > ℓ apart; the DFS hops ≤ 2ℓ.
	Ell float64
	// Target is the number of samples to collect; the run stops as soon as
	// len(Samples) reaches it (case |P′| = 4ℓ of Lemma 5). Zero or negative
	// disables the sample cap.
	Target int
	// RecruitTarget, when positive, additionally stops the run once that
	// many robots have been recruited. ASeparator uses it to fill teams to
	// 4ℓ counting members that already have an origin in the region.
	RecruitTarget int
	// Seeds are the DFS start positions X, unordered (the run sorts them).
	Seeds []Seed
	// Known seeds the discovery state: robots already known to the team,
	// id → initial position, typically from a prior Explore of sep(S). Run
	// takes ownership of the map and extends it into Outcome.Discovered,
	// so the caller passes a map it owns, or nil.
	Known map[int]geom.Point
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
func (r *Request) wantMore(samples, recruits int) bool {
	if r.Target > 0 && samples >= r.Target {
		return false
	}
	if r.RecruitTarget > 0 && recruits >= r.RecruitTarget {
		return false
	}
	return true
}

// Outcome reports a completed DFSampling.
type Outcome struct {
	// Samples is P′, in sampling order.
	Samples []geom.Point
	// Recruits are the ids of robots awakened (and escorted) by this run.
	Recruits []int
	// Discovered maps every robot id seen during the run (or passed in via
	// Known, whose map it is when Known was non-nil) to its initial
	// position.
	Discovered map[int]geom.Point
	// Covered is Lemma 5's case (2): the run exhausted all branches before
	// reaching any target, so every admitted robot of S is within ℓ of a
	// sample and Discovered holds all of P ∩ S reachable from the seeds.
	Covered bool
	// Members is the team roster after recruiting: the input members plus
	// Recruits, all co-located with the leader.
	Members []int
}

// Run executes DFSampling with the calling process as team leader and
// members as co-located passive teammates. Newly recruited robots join the
// team immediately and speed up subsequent ball explorations (Lemma 5's
// O(ℓ² log |P′|) effect). On budget exhaustion the run returns what it has
// with the error.
func Run(p *sim.Proc, members []int, req Request) (Outcome, error) {
	metric := p.Engine().Metric()
	out := Outcome{Discovered: req.Known}
	if out.Discovered == nil {
		out.Discovered = make(map[int]geom.Point)
	}
	out.Members = append(out.Members, members...)

	// asleep tracks robots believed asleep (discovered asleep, not yet
	// recruited by us). Region exclusivity keeps this belief exact.
	asleep := make(map[int]bool)
	for id := range out.Discovered {
		if p.Engine().Robot(id).State() == sim.Asleep {
			asleep[id] = true
		}
	}

	seedPts := make([]geom.Point, len(req.Seeds))
	seedBy := make(map[geom.Point]int, len(req.Seeds))
	for i, s := range req.Seeds {
		seedPts[i] = s.Pos
		seedBy[s.Pos] = s.AsleepID
		if s.AsleepID >= 0 {
			out.Discovered[s.AsleepID] = s.Pos
			asleep[s.AsleepID] = true
		}
	}
	ordered := SortSeeds(req.Square, seedPts)

	admit := req.Admit
	if admit == nil {
		admit = req.Region.Contains
	}

	farFromSamples := func(q geom.Point) bool {
		for _, s := range out.Samples {
			if geom.WithinIn(metric, s, q, req.Ell) {
				return false
			}
		}
		return true
	}

	// addSample moves the team to q, records the sample, and recruits the
	// sleeping robot there if any.
	addSample := func(q geom.Point, robotID int) error {
		if _, err := p.Escort(out.Members, q); err != nil {
			return err
		}
		out.Samples = append(out.Samples, q)
		if robotID >= 0 && asleep[robotID] {
			p.Wake(robotID, nil) // recruited: passive team member
			delete(asleep, robotID)
			out.Recruits = append(out.Recruits, robotID)
			out.Members = append(out.Members, robotID)
		}
		return nil
	}

	// exploreBall sweeps B(cur, 2ℓ) ∩ S with the whole team and returns to
	// cur, merging discoveries. Each ball is swept at most once (backtracking
	// must cost only moves, per the Lemma 5 analysis).
	explored := make(map[geom.Point]bool)
	exploreBall := func(cur geom.Point) error {
		if explored[cur] {
			return nil
		}
		explored[cur] = true
		ball := geom.DiskAt(cur, 2*req.Ell).BoundingSquare().Rect()
		clip := geom.Rect{
			Min: geom.Pt(maxf(ball.Min.X, req.Region.Min.X), maxf(ball.Min.Y, req.Region.Min.Y)),
			Max: geom.Pt(minf(ball.Max.X, req.Region.Max.X), minf(ball.Max.Y, req.Region.Max.Y)),
		}
		if clip.Min.X > clip.Max.X || clip.Min.Y > clip.Max.Y {
			return nil
		}
		sweepers := out.Members
		if req.NoTeamGrowth {
			sweepers = members // ablation: only the original team sweeps
		}
		res, err := explore.Rect(p, sweepers, clip, cur)
		defer explore.Recycle(p, res)
		if err != nil {
			return err
		}
		for id, pos := range res.Asleep {
			if _, known := out.Discovered[id]; !known {
				out.Discovered[id] = pos
				asleep[id] = true
			}
		}
		for id, pos := range res.AwakeSeen {
			if _, known := out.Discovered[id]; !known {
				// An awake robot seen mid-run: record its observed position
				// as knowledge; it is not a sampling candidate.
				out.Discovered[id] = pos
			}
		}
		return nil
	}

	// nextCandidate picks the sampling candidate reachable from cur: a
	// discovered sleeping robot in S within 2ℓ of cur and > ℓ from every
	// sample; nearest first, then lowest id, so the pick is unique.
	nextCandidate := func(cur geom.Point) (best int, bestPos geom.Point, ok bool) {
		bestD := 0.0
		for id := range asleep {
			pos := out.Discovered[id]
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

	for _, seed := range ordered {
		if !req.wantMore(len(out.Samples), len(out.Recruits)) {
			break
		}
		if !admit(seed) {
			continue // assigned to a sibling region
		}
		if !farFromSamples(seed) {
			continue // B_seed(ℓ) already covered
		}
		if err := addSample(seed, seedBy[seed]); err != nil {
			return out, err
		}
		// Depth-first search from this seed over the 2ℓ-disk graph.
		stack := []geom.Point{seed}
		for len(stack) > 0 && req.wantMore(len(out.Samples), len(out.Recruits)) {
			cur := stack[len(stack)-1]
			if err := exploreBall(cur); err != nil {
				return out, err
			}
			id, pos, ok := nextCandidate(cur)
			if !ok {
				// Backtrack one hop.
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					if _, err := p.Escort(out.Members, stack[len(stack)-1]); err != nil {
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
	out.Covered = req.wantMore(len(out.Samples), len(out.Recruits))
	return out, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
