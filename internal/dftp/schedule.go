package dftp

import (
	"sort"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// schedule is the §8 round schedule that AGrid and AWave share: the plane
// is cut into cells of width R, one cell's explore-and-wake takes at most
// t, and round k ≥ 1 runs 8 work slots of width t + 3R, one per adjacent
// cell, starting at roundStart(k). The robots woken during round k-1
// register with the cell they started in, and each (round, cell) team is
// read at its work deadlines.
type schedule struct {
	r     float64 // cell width R
	t     float64 // per-cell work bound t
	slotW float64 // slot width t + 3R (√2R travel plus slack)
	reg   map[gridKey][]int
	rep   Report
	// run is the round-k participant body, set once per engine, and
	// conts[k] the memoized handler that calls run(k, ·).
	run   func(k int, p *sim.Proc)
	conts []func(*sim.Proc)
}

type gridKey struct {
	k      int // round index
	kx, ky int // grid cell of the participants' home square
}

// reset rewinds the schedule and its report for cells of width r whose
// work, for one unit-speed robot under ℓ2, takes at most work. Registry
// keys are retained with their value slices truncated: a repeat instance
// shape touches exactly the same (round, cell) teams, so registration
// allocates nothing; stale keys from a previous shape are never read
// (reads are keyed by the current run's home squares).
func (s *schedule) reset(e *sim.Engine, r, work float64) {
	// The slot-work constants are calibrated upper bounds on ℓ2 travel at
	// unit speed; inflating them by the metric's stretch keeps them valid
	// bounds under any ℓp (1× for p ≥ 2, √2× for ℓ1 — see
	// geom.Metric.Stretch), and dividing by the swarm's slowest speed keeps
	// them valid travel-time bounds under heterogeneous profiles (÷1 — the
	// exact IEEE identity — in the homogeneous model).
	st := e.Metric().Stretch() / e.MinSpeed()
	s.rep.Misses = s.rep.Misses[:0]
	s.rep.Rounds = 0
	s.r = r
	s.t = work * st
	s.slotW = s.t + 3*s.r*st
	if s.reg == nil {
		s.reg = make(map[gridKey][]int)
	}
	for k, v := range s.reg {
		s.reg[k] = v[:0]
	}
}

// roundStart returns t_k, the start of round k ≥ 1. Rounds are 9 slot-widths
// apart: 8 work slots plus one slack slot for travel and late wake-ups (a
// schedule deviation from the paper's 8, documented in the package comment).
func (s *schedule) roundStart(k int) float64 {
	return s.t + 9*s.slotW*float64(k-1)
}

// workDeadline returns the start of work slot i ∈ [1,8] of round k.
func (s *schedule) workDeadline(k, i int) float64 {
	return s.roundStart(k) + s.slotW*float64(i)
}

// key returns the registry key of the round-k team of cell c.
func (s *schedule) key(k int, c geom.Square) gridKey {
	kx, ky := geom.GridIndex(c.Center, s.r)
	return gridKey{k: k, kx: kx, ky: ky}
}

// register adds a participant to its (round, home-cell) team. Teams are
// read at work deadlines, strictly after every round-k registration (all
// wake-ups of round k-1 precede t_k).
func (s *schedule) register(k int, home geom.Square, id int) {
	key := s.key(k, home)
	s.reg[key] = append(s.reg[key], id)
}

// team returns the registered round-k participants of cell c, ascending, so
// team[0] leads. It sorts the registry's own storage in place: every round-k
// registration precedes the reads, so each read sorts the same ids into the
// same order. A reader that keeps the team across a call that can block
// copies it first.
func (s *schedule) team(k int, c geom.Square) []int {
	t := s.reg[s.key(k, c)]
	sort.Ints(t)
	return t
}

// cont returns the memoized participant handler for round k.
func (s *schedule) cont(k int) func(*sim.Proc) {
	for len(s.conts) <= k {
		kk := len(s.conts)
		s.conts = append(s.conts, func(p *sim.Proc) { s.run(kk, p) })
	}
	return s.conts[k]
}

// cellAdmit returns the exclusive ownership predicate of cell c: the points
// whose cell is c.
func (s *schedule) cellAdmit(c geom.Square) func(geom.Point) bool {
	kx, ky := geom.GridIndex(c.Center, s.r)
	return func(p geom.Point) bool {
		cx, cy := geom.GridIndex(p, s.r)
		return cx == kx && cy == ky
	}
}
