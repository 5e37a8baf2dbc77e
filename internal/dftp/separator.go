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
	// imported marks robots that entered the region from outside (AWave wave
	// teams); they never join reorganized teams and return to the caller.
	imported map[int]bool
	// wg, when non-nil, tracks spawned recursion branches so an AWave slot
	// leader can wait for the whole subtree.
	wg *sim.WaitGroup
	// nonce makes barrier keys unique across separate executions that may
	// visit the same square.
	nonce string
}

// runFromSource executes Round 0 (initial recruitment from the source) and
// then the round recursion on square S. admit is the ownership predicate
// for S (exclusive cell assignment when neighboring regions exist). It
// returns true when the source's own round was terminal, in which case the
// caller decides whether the source itself gets the continuation.
func (c *sepCtx) runFromSource(p *sim.Proc, S geom.Square, admit func(geom.Point) bool) bool {
	l4 := 4 * c.tup.L()
	c.nonce = fmt.Sprintf("sep@%d/%.6g", p.ID(), p.Now())
	out, err := sampling.Run(p, nil, sampling.Request{
		Region:        S.Rect(),
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
	if _, err := p.Escort(out.Members, S.Center); err != nil {
		c.rep.miss("round 0 escort: %v", err)
		return false
	}
	known := asleepNow(c.eng, out.Discovered)
	return c.round(p, out.Members, S, admit, known, 1)
}

// round executes Round k on square S with the calling process as leader and
// members as co-located passive teammates, all positioned at the center of
// S. admit is the ownership predicate for S (points of sibling regions are
// excluded); known maps discovered, still-sleeping robots of S to their
// positions. It returns true when this was a terminal round (the leader's
// robot is free afterwards) and false when the team was partitioned into new
// teams that own the leader's robot.
func (c *sepCtx) round(p *sim.Proc, members []int, S geom.Square,
	admit func(geom.Point) bool, known map[int]geom.Point, depth int) bool {
	c.rep.sawRound(depth)
	l4 := 4 * c.tup.L()
	total := len(members) + 1
	if total < l4 {
		c.terminalWake(p, members, S, admit, known)
		return true
	}
	if S.Width <= 4*c.tup.Ell {
		// Base case: the square is small enough to sweep outright within one
		// round budget (Corollary 1); recursing further cannot shrink teams.
		c.baseExploreWake(p, members, S, admit, known)
		return true
	}

	// --- Partition -----------------------------------------------------
	subs := S.SubSquares()
	groups := partitionTeam(p.ID(), members)
	st := &roundState{}
	key := fmt.Sprintf("reorg/%s/%.6g,%.6g/%.6g/%d", c.nonce, S.Center.X, S.Center.Y, S.Width, depth)
	allTeam := append([]int{p.ID()}, members...)

	for i := 1; i < 4; i++ {
		i := i
		g := groups[i]
		if len(g) == 0 {
			// Degenerate tiny team split; mark the slot empty.
			st.outcomes[i].Discovered = map[int]geom.Point{}
			continue
		}
		leader, rest := g[0], g[1:]
		st.active++
		c.eng.Spawn(leader, func(q *sim.Proc) {
			c.groupWork(q, rest, S, subs, i, admit, known, allTeam, st, key)
		})
	}
	st.active++
	c.groupWork(p, groups[0], S, subs, 0, admit, known, allTeam, st, key)

	// --- Reorganization (coordinator = group-0 leader) ------------------
	c.reorganize(p, S, subs, admit, known, allTeam, st, depth)
	return false
}

// roundState is the blackboard the four group leaders share; writes happen
// before the reorganization barrier, reads after, under strict handoff.
type roundState struct {
	outcomes [4]sampling.Outcome
	active   int // number of group processes participating in the barrier
}

// partitionTeam splits leader+members into four groups of near-equal size.
// groups[0] belongs to the calling leader and excludes its own id; groups
// 1..3 are led by their first element.
func partitionTeam(leaderID int, members []int) [4][]int {
	rest := append([]int(nil), members...)
	sort.Ints(rest)
	var groups [4][]int
	n := len(rest) + 1 // leader included in group 0's headcount
	for i := 0; i < 4; i++ {
		share := n / 4
		if i < n%4 {
			share++
		}
		if i == 0 {
			share-- // leader itself fills one slot of group 0
		}
		if share > len(rest) {
			share = len(rest)
		}
		groups[i] = rest[:share]
		rest = rest[share:]
	}
	// Any remainder from clamping joins group 0.
	groups[0] = append(groups[0], rest...)
	return groups
}

// groupWork is phase (iii)+(iv) for one sub-square: explore its separator,
// recruit by DFSampling, then return to the center of S and synchronize.
func (c *sepCtx) groupWork(q *sim.Proc, rest []int, S geom.Square, subs [4]geom.Square,
	i int, admit func(geom.Point) bool, known map[int]geom.Point,
	allTeam []int, st *roundState, key string) {

	sub := subs[i]
	subAdmit := func(pt geom.Point) bool { return admit(pt) && assignSub(pt, subs) == i }
	sep := separator.Of(sub, c.tup.Ell)

	// (iii) Exploration of sep(sub): sweep its rectangles, gathering at the
	// sub-square center.
	disc := make(map[int]geom.Point, len(known))
	for id, pos := range known {
		disc[id] = pos
	}
	rects := sep.Rects()
	team := rest
	for j, r := range rects {
		dest := sub.Center
		if j < len(rects)-1 {
			dest = rects[j+1].Min
		}
		res, err := explore.Rect(q, team, r, dest)
		if err != nil {
			c.rep.miss("sep explore: %v", err)
		}
		for id, pos := range res.Asleep {
			if _, ok := disc[id]; !ok {
				disc[id] = pos
			}
		}
		explore.Recycle(q, res)
	}

	// (iv) Recruitment: seeds X_i are the initial positions in sep(sub) of
	// robots found asleep plus those of already-awake robots (the team's
	// own origins in the separator).
	var seeds []sampling.Seed
	for id, pos := range asleepNow(c.eng, disc) {
		if sep.Contains(pos) && subAdmit(pos) {
			seeds = append(seeds, sampling.Seed{Pos: pos, AsleepID: id})
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
		if !c.imported[id] && assignSub(c.eng.Robot(id).InitPos(), subs) == i && admit(c.eng.Robot(id).InitPos()) {
			existing++
		}
	}
	l4 := 4 * c.tup.L()
	out := sampling.Outcome{Discovered: disc, Members: team}
	if target := l4 - existing; target > 0 {
		var err error
		out, err = sampling.Run(q, team, sampling.Request{
			Region:        sub.Rect(),
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
	if _, err := q.Escort(out.Members, S.Center); err != nil {
		c.rep.miss("return escort: %v", err)
	}
	q.Barrier(key, st.active)
	// Groups 1..3 end here; their robots are passive at the center of S and
	// get re-teamed by the coordinator. Group 0 continues in round().
}

// reorganize is phase (v): form the next-round teams by sub-square of
// origin, spawn their leaders, and dispatch them.
func (c *sepCtx) reorganize(p *sim.Proc, S geom.Square, subs [4]geom.Square,
	admit func(geom.Point) bool, known map[int]geom.Point,
	allTeam []int, st *roundState, depth int) {

	merged := make(map[int]geom.Point, len(known))
	for id, pos := range known {
		merged[id] = pos
	}
	var teams [4][]int
	for i := range st.outcomes {
		for id, pos := range st.outcomes[i].Discovered {
			if _, ok := merged[id]; !ok {
				merged[id] = pos
			}
		}
		teams[i] = append(teams[i], st.outcomes[i].Recruits...)
	}
	// Existing robots join the team of their origin's sub-square; imported
	// robots stay with the caller.
	for _, id := range allTeam {
		if c.imported[id] {
			continue
		}
		origin := c.eng.Robot(id).InitPos()
		if !admit(origin) {
			continue
		}
		teams[assignSub(origin, subs)] = append(teams[assignSub(origin, subs)], id)
	}

	stillAsleep := asleepNow(c.eng, merged)
	for i := range teams {
		if len(teams[i]) == 0 {
			continue
		}
		i := i
		team := teams[i]
		sort.Ints(team)
		leader, rest := team[0], team[1:]
		subAdmit := func(pt geom.Point) bool { return admit(pt) && assignSub(pt, subs) == i }
		childKnown := make(map[int]geom.Point)
		for id, pos := range stillAsleep {
			if subAdmit(pos) {
				childKnown[id] = pos
			}
		}
		if c.wg != nil {
			c.wg.Add(1)
		}
		c.eng.Spawn(leader, func(q *sim.Proc) {
			if _, err := q.Escort(rest, subs[i].Center); err != nil {
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
	// re-teamed, the new leader's process now owns it. Imported robots
	// (AWave) remain with the caller at the center of S.
}

// terminalWake is the Termination phase: a centralized awakening of the
// known sleeping robots of S (the team was recruited below 4ℓ, so Lemma 5
// guarantees known covers all of P ∩ S).
func (c *sepCtx) terminalWake(p *sim.Proc, members []int, S geom.Square,
	admit func(geom.Point) bool, known map[int]geom.Point) {

	ids := appendAdmitted(make([]int, 0, len(known)), known, admit)
	if err := wakeup.WakeAsleep(p, ids, c.cont); err != nil {
		c.rep.miss("terminal propagate: %v", err)
	}
	c.releaseMembers(members)
}

// baseExploreWake handles squares of width ≤ 4ℓ: sweep the whole square with
// the team, then wake every discovered robot with a wake-up tree
// (Corollary 1's explore-and-wake, generalized to a team).
func (c *sepCtx) baseExploreWake(p *sim.Proc, members []int, S geom.Square,
	admit func(geom.Point) bool, known map[int]geom.Point) {

	res, err := explore.Rect(p, members, S.Rect(), S.Center)
	if err != nil {
		c.rep.miss("base explore: %v", err)
	}
	ids := appendAdmitted(make([]int, 0, len(known)+len(res.Asleep)), known, admit)
	ids = appendAdmitted(ids, res.Asleep, admit)
	explore.Recycle(p, res)
	if err := wakeup.WakeAsleep(p, ids, c.cont); err != nil {
		c.rep.miss("base propagate: %v", err)
	}
	c.releaseMembers(members)
}

// appendAdmitted appends to ids the robots of set whose position admit
// accepts, in map order; wakeup.WakeAsleep sorts them, drops repeats and
// keeps only the robots still asleep.
func appendAdmitted(ids []int, set map[int]geom.Point, admit func(geom.Point) bool) []int {
	for id, pos := range set {
		if admit(pos) {
			ids = append(ids, id)
		}
	}
	return ids
}

// releaseMembers ends the team life of passive members after a terminal
// round: fresh robots get the continuation, imported robots stay passive
// for their caller to collect.
func (c *sepCtx) releaseMembers(members []int) {
	if c.cont == nil {
		return
	}
	for _, id := range members {
		if c.imported[id] {
			continue
		}
		c.eng.Spawn(id, c.cont)
	}
}
