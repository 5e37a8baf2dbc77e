package dftp

import (
	"fmt"
	"sort"

	"freezetag/internal/explore"
	"freezetag/internal/geom"
	"freezetag/internal/sampling"
	"freezetag/internal/separator"
	"freezetag/internal/sim"
	"freezetag/internal/wakeup"
)

// ASeparator is the unconstrained-energy algorithm of §3 (Theorem 1).
type ASeparator struct{}

// Name implements Algorithm.
func (ASeparator) Name() string { return "ASeparator" }

// Install implements Algorithm: the source recruits an initial team of 4ℓ
// robots by DFSampling the width-2ρ square (Round 0), then runs the
// partition/explore/recruit/reorganize rounds.
func (ASeparator) Install(e *sim.Engine, tup Tuple) *Report {
	rep := &Report{}
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		S := geom.Sq(p.Self().Pos(), 2*tup.Rho)
		ctx := &sepCtx{eng: e, tup: tup, rep: rep}
		ctx.runFromSource(p, S, S.Contains)
	})
	return rep
}

// sepCtx is the shared state of one ASeparator execution (standalone, or one
// AWave slot).
type sepCtx struct {
	eng *sim.Engine
	tup Tuple
	rep *Report
	// cont, when non-nil, runs on every robot woken by this execution after
	// its share of the work completes (AWave round participation).
	cont func(*sim.Proc)
	// wg, when non-nil, tracks spawned recursion branches so an AWave slot
	// leader can wait for the whole subtree.
	wg *sim.WaitGroup
	// nonce tells apart, on the trace, the reorganization meetings of
	// separate executions that may visit the same square. It is set only
	// when the engine traces.
	nonce string
}

// runFromSource executes Round 0 (initial recruitment from the source) and
// then the round recursion on square S. admit is the ownership predicate
// for S (exclusive cell assignment when neighboring regions exist). It
// returns true when the source's own round was terminal, in which case the
// caller decides whether the source itself gets the continuation.
func (c *sepCtx) runFromSource(p *sim.Proc, S geom.Square, admit func(geom.Point) bool) bool {
	l4 := 4 * c.tup.L()
	if c.eng.Tracing() {
		c.nonce = fmt.Sprintf("sep@%d/%.6g", p.ID(), p.Now())
	}
	out, err := sampling.Run(p, nil, sampling.Request{
		Square:        S,
		Ell:           c.tup.Ell,
		RecruitTarget: l4 - 1,
		Seeds:         []sampling.Seed{{Pos: p.Self().Pos(), AsleepID: -1}},
		Admit:         admit,
	})
	if err != nil {
		c.rep.miss("round 0 sampling: %v", err)
		return false
	}
	if err := p.Escort(out.Members, S.Center); err != nil {
		c.rep.miss("round 0 escort: %v", err)
		return false
	}
	return c.round(p, out.Members, S, admit, out.Discovered, 1)
}

// round executes Round k on square S with the calling process as leader and
// members as co-located passive teammates, all positioned at the center of
// S. admit is the ownership predicate for S (points of sibling regions are
// excluded); known lists the ids of robots discovered in S, ascending and
// each once, and every reader keeps only those still asleep and never
// writes through it. It returns true when this was a terminal round (the
// leader's robot is free afterwards) and false when the team was
// partitioned into new teams that own the leader's robot.
func (c *sepCtx) round(p *sim.Proc, members []int, S geom.Square,
	admit func(geom.Point) bool, known []int, depth int) bool {
	c.rep.sawRound(depth)
	l4 := 4 * c.tup.L()
	total := len(members) + 1
	if total < l4 {
		c.terminalWake(p, members, admit, known)
		return true
	}
	if S.Width <= 4*c.tup.Ell {
		// Base case: the square is small enough to sweep outright within one
		// round budget (Corollary 1); recursing further cannot shrink teams.
		c.baseExploreWake(p, members, S, admit, known)
		return true
	}

	// --- Partition -----------------------------------------------------
	// allTeam is the round's one team list, the leader first; the groups
	// are windows of its tail.
	subs := S.SubSquares()
	allTeam := append(append(make([]int, 0, total), p.ID()), members...)
	groups := partitionTeam(allTeam[1:])
	st := &roundState{}
	if c.eng.Tracing() {
		st.label = fmt.Sprintf("reorg/%s/%.6g,%.6g/%.6g/%d", c.nonce, S.Center.X, S.Center.Y, S.Width, depth)
	}

	for i := 1; i < 4; i++ {
		i := i
		g := groups[i]
		if len(g) == 0 {
			continue // degenerate tiny team split: the slot stays empty
		}
		leader, rest := g[0], g[1:]
		st.Need++
		c.eng.Spawn(leader, func(q *sim.Proc) {
			c.groupWork(q, rest, S, subs, i, admit, known, allTeam, st)
		})
	}
	st.Need++
	c.groupWork(p, groups[0], S, subs, 0, admit, known, allTeam, st)

	// --- Reorganization (coordinator = group-0 leader) ------------------
	c.reorganize(subs, admit, allTeam, st, depth)
	return false
}

// roundState is the blackboard the four group leaders share; writes happen
// before the reorganization barrier, reads after, under strict handoff. Its
// barrier needs one arrival per group process spawned, and label names the
// meeting on the trace.
type roundState struct {
	sim.Barrier
	outcomes [4]sampling.Outcome
	label    string
}

// partitionTeam sorts a leader's members in place and splits the team, the
// leader included, into four groups of near-equal size. groups[0] belongs
// to the calling leader and excludes its own id; groups 1..3 are led by
// their first element. Each group is a window of members clipped to its
// length, so an append to one never writes into the next. The shares sum
// to len(members).
func partitionTeam(members []int) [4][]int {
	sort.Ints(members)
	var groups [4][]int
	n := len(members) + 1 // leader included in group 0's headcount
	for i := range groups {
		share := n / 4
		if i < n%4 {
			share++
		}
		if i == 0 {
			share-- // leader itself fills one slot of group 0
		}
		groups[i], members = members[:share:share], members[share:]
	}
	return groups
}

// groupWork is phase (iii)+(iv) for one sub-square: explore its separator,
// recruit by DFSampling, then return to the center of S and synchronize.
func (c *sepCtx) groupWork(q *sim.Proc, rest []int, S geom.Square, subs [4]geom.Square,
	i int, admit func(geom.Point) bool, known []int,
	allTeam []int, st *roundState) {

	sub := subs[i]
	subAdmit := func(pt geom.Point) bool { return admit(pt) && assignSub(pt, subs) == i }
	sep := separator.Of(sub, c.tup.Ell)

	// (iii) Exploration of sep(sub): sweep its rectangles, gathering at the
	// sub-square center.
	disc := append([]int(nil), known...)
	rects := sep.Rects()
	team := rest
	for j, r := range rects {
		dest := sub.Center
		if j < len(rects)-1 {
			dest = rects[j+1].Min
		}
		seen, err := explore.Rect(q, team, r, dest)
		if err != nil {
			c.rep.miss("sep explore: %v", err)
		}
		disc = append(disc, seen...)
	}
	disc = explore.SortIDs(disc)

	// (iv) Recruitment: seeds X_i are the initial positions in sep(sub) of
	// robots found asleep plus those of already-awake robots (the team's
	// own origins in the separator).
	var seeds []sampling.Seed
	for _, id := range disc {
		r := c.eng.Robot(id)
		if r.State() == sim.Asleep && sep.Contains(r.InitPos()) && subAdmit(r.InitPos()) {
			seeds = append(seeds, sampling.Seed{Pos: r.InitPos(), AsleepID: id})
		}
	}
	for _, id := range allTeam {
		pos := c.eng.Robot(id).InitPos()
		if sep.Contains(pos) && subAdmit(pos) {
			seeds = append(seeds, sampling.Seed{Pos: pos, AsleepID: -1})
		}
	}

	existing := 0
	for _, id := range allTeam {
		if subAdmit(c.eng.Robot(id).InitPos()) {
			existing++
		}
	}
	l4 := 4 * c.tup.L()
	out := sampling.Outcome{Discovered: disc, Members: team}
	if target := l4 - existing; target > 0 {
		var err error
		out, err = sampling.Run(q, team, sampling.Request{
			Square:        sub,
			Ell:           c.tup.Ell,
			RecruitTarget: target,
			Seeds:         seeds,
			Known:         disc,
			Admit:         subAdmit,
		})
		if err != nil {
			c.rep.miss("dfsampling: %v", err)
		}
	}
	st.outcomes[i] = out

	// Return to the center of S and synchronize with the sibling groups.
	if err := q.Escort(out.Members, S.Center); err != nil {
		c.rep.miss("return escort: %v", err)
	}
	q.Await(&st.Barrier, st.label)
	// Groups 1..3 end here; their robots are passive at the center of S and
	// get re-teamed by the coordinator. Group 0 continues in round().
}

// reorganize is phase (v): form the next-round teams by sub-square of
// origin, spawn their leaders, and dispatch them. Each child team learns
// the robots of its sub-square that are still asleep.
func (c *sepCtx) reorganize(subs [4]geom.Square, admit func(geom.Point) bool,
	allTeam []int, st *roundState, depth int) {

	// The round's knowledge is the union of the groups' discoveries (each
	// extends the round's known list); only the robots still asleep are
	// handed on.
	var asleep []int
	var teams [4][]int
	for i, out := range st.outcomes {
		for _, id := range out.Discovered {
			if c.eng.Robot(id).State() == sim.Asleep {
				asleep = append(asleep, id)
			}
		}
		teams[i] = append(teams[i], out.Recruits...)
	}
	asleep = explore.SortIDs(asleep)
	// Existing robots join the team of their origin's sub-square. A robot
	// whose origin S does not admit came from outside (an AWave wave team)
	// and stays with the caller.
	for _, id := range allTeam {
		origin := c.eng.Robot(id).InitPos()
		if !admit(origin) {
			continue
		}
		teams[assignSub(origin, subs)] = append(teams[assignSub(origin, subs)], id)
	}

	for i := range teams {
		if len(teams[i]) == 0 {
			continue
		}
		i := i
		team := teams[i]
		sort.Ints(team)
		leader, rest := team[0], team[1:]
		subAdmit := func(pt geom.Point) bool { return admit(pt) && assignSub(pt, subs) == i }
		childKnown := c.appendAdmitted(nil, asleep, subAdmit)
		if c.wg != nil {
			c.wg.Add(1)
		}
		c.eng.Spawn(leader, func(q *sim.Proc) {
			if err := q.Escort(rest, subs[i].Center); err != nil {
				c.rep.miss("dispatch escort: %v", err)
			}
			terminal := c.round(q, rest, subs[i], subAdmit, childKnown, depth+1)
			if c.wg != nil {
				c.wg.Done()
			}
			if terminal && c.cont != nil {
				c.cont(q)
			}
		})
	}
	// The coordinator's process ends in round()'s caller; if its robot was
	// re-teamed, the new leader's process now owns it. Robots from outside
	// S (AWave) remain with the caller at the center of S.
}

// terminalWake is the Termination phase: a centralized awakening of the
// known sleeping robots of S (the team was recruited below 4ℓ, so Lemma 5
// guarantees known covers all of P ∩ S).
func (c *sepCtx) terminalWake(p *sim.Proc, members []int,
	admit func(geom.Point) bool, known []int) {

	ids := c.appendAdmitted(make([]int, 0, len(known)), known, admit)
	if err := wakeup.WakeAsleep(p, ids, c.cont); err != nil {
		c.rep.miss("terminal propagate: %v", err)
	}
	c.releaseMembers(members, admit)
}

// baseExploreWake handles squares of width ≤ 4ℓ: sweep the whole square with
// the team, then wake every discovered robot with a wake-up tree
// (Corollary 1's explore-and-wake, generalized to a team).
func (c *sepCtx) baseExploreWake(p *sim.Proc, members []int, S geom.Square,
	admit func(geom.Point) bool, known []int) {

	seen, err := explore.Rect(p, members, S.Rect(), S.Center)
	if err != nil {
		c.rep.miss("base explore: %v", err)
	}
	ids := c.appendAdmitted(make([]int, 0, len(known)+len(seen)), known, admit)
	ids = c.appendAdmitted(ids, seen, admit)
	if err := wakeup.WakeAsleep(p, ids, c.cont); err != nil {
		c.rep.miss("base propagate: %v", err)
	}
	c.releaseMembers(members, admit)
}

// appendAdmitted appends to dst the robots of ids whose initial position
// admit accepts, in the order of ids.
func (c *sepCtx) appendAdmitted(dst, ids []int, admit func(geom.Point) bool) []int {
	for _, id := range ids {
		if admit(c.eng.Robot(id).InitPos()) {
			dst = append(dst, id)
		}
	}
	return dst
}

// releaseMembers ends the team life of passive members after a terminal
// round: robots whose origin admit accepts get the continuation, and robots
// from outside the region (an AWave wave team) stay passive for their
// caller to collect.
func (c *sepCtx) releaseMembers(members []int, admit func(geom.Point) bool) {
	if c.cont == nil {
		return
	}
	for _, id := range members {
		if admit(c.eng.Robot(id).InitPos()) {
			c.eng.Spawn(id, c.cont)
		}
	}
}
