package wakeup

import (
	"fmt"
	"math"
	"sort"

	"freezetag/internal/sim"
)

// This file is the self-stabilizing repair layer for wake-up trees: under a
// fault plan, every Propagate registers a speed-aware deadline watch on each
// subtree it hands off, and a monitor process on the source detects orphaned
// subtrees — an expected child that never woke within its deadline, a branch
// whose carrier crashed, a wake the channel dropped — and re-parents them by
// dispatching an idle awake robot with a freshly built tree over the robots
// still asleep. The design follows the related work's self-stabilization
// shape (closure + convergence): any configuration the faults can force is
// eventually detected from the sleeping set itself, so the repaired schedule
// converges to all-awake whenever a live rescuer remains; the source (fault-
// immune by construction) is the rescuer of last resort, which is what makes
// completion under crash-stop faults a guarantee rather than a likelihood.
//
// Model note: the monitor reads robot states and positions through the
// engine rather than through Look snapshots — a deliberate corrector-
// omniscience deviation (the detector is given perfect failure information;
// only the repair work itself is paid for in travel time). The bounded-
// inflation tests quantify the resulting extra makespan.

// RepairConfig parameterizes the repair layer. Zero values select defaults.
type RepairConfig struct {
	// Poll is the monitor's tick interval in virtual time; ≤ 0 means 1.
	// Callers should scale it to the instance (≈ ℓ / min-speed): detection
	// latency is one poll, so a too-fine poll wastes events and a too-coarse
	// one delays every rescue.
	Poll float64
}

const (
	// repairSlack multiplies a subtree's estimated completion time to form
	// its watch deadline. Larger values tolerate slower carriers
	// (crash-recovery outages) at the cost of later detection.
	repairSlack = 3
	// repairMaxAttempts caps rescue attempts per robot before the monitor
	// gives it up — the termination bound for unreachable robots, e.g. a
	// wake-drop plan at rate 1.
	repairMaxAttempts = 16
)

// watch is one outstanding handoff: the woken subtree's robot ids and the
// deadline by which all of them should be awake.
type watch struct {
	child    int
	deadline float64
	ids      []int
}

// Repairer is the per-engine repair state, stashed in engine scratch so a
// pooled engine reuses its buffers across runs.
type Repairer struct {
	cfg       RepairConfig
	installed bool
	watches   []watch
	orphans   []int
	idbuf     []int
	tbuf      []Target
	attempts  []int
}

// repairerOf returns the engine's repair state, creating an inert one on
// first use.
func repairerOf(e *sim.Engine) *Repairer {
	return sim.ScratchOf(e, "wakeup.repair", func() *Repairer { return &Repairer{} })
}

// ResetRun implements sim.RunScratch.
func (rp *Repairer) ResetRun() {
	rp.installed = false
	rp.watches = rp.watches[:0]
	rp.orphans = rp.orphans[:0]
	rp.attempts = rp.attempts[:0]
}

// InstallRepair arms the repair layer on a fault-injected engine: subsequent
// Propagate calls register watches, and a monitor process on the source
// rescues orphaned subtrees until the swarm is awake (or provably
// unreachable). On a fault-free engine it is a no-op, keeping the fault-free
// run bit-identical. Must be called after the algorithm's Install and before
// Run.
func InstallRepair(e *sim.Engine, cfg RepairConfig) {
	if !e.FaultsEnabled() {
		return
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 1
	}
	rp := repairerOf(e)
	rp.cfg = cfg
	rp.installed = true
	if cap(rp.attempts) < e.NumRobots() {
		rp.attempts = make([]int, e.NumRobots())
	} else {
		rp.attempts = rp.attempts[:e.NumRobots()]
		for i := range rp.attempts {
			rp.attempts[i] = 0
		}
	}
	e.Spawn(sim.SourceID, rp.monitor)
}

// appendTreeIDs appends every robot id in the subtree to buf, preorder.
func appendTreeIDs(n *Node, buf []int) []int {
	if n == nil {
		return buf
	}
	buf = append(buf, n.ID)
	for _, c := range n.Children {
		buf = appendTreeIDs(c, buf)
	}
	return buf
}

// orphanSubtree queues every robot of the subtree for rescue; the rescue
// sweep re-checks who is still asleep before acting, so over-reporting is
// safe (double coverage is tolerated by TryWake).
func (rp *Repairer) orphanSubtree(n *Node) {
	rp.orphans = appendTreeIDs(n, rp.orphans)
}

// addWatch registers a deadline watch on the subtree just handed to child:
// the estimated completion time of the handoff, scaled by the slack factor,
// plus one poll of detection latency.
func (rp *Repairer) addWatch(e *sim.Engine, node *Node, woken *Node) {
	t := MakespanProfiledIn(e.Metric(), node.Pos, node.Speed, woken)
	rp.watches = append(rp.watches, watch{
		child:    node.ID,
		deadline: e.Now() + repairSlack*t + rp.cfg.Poll,
		ids:      appendTreeIDs(woken, nil),
	})
}

// monitor is the repair-layer process on the source robot. It never moves
// the source itself — it only observes, dispatches rescues on idle robots
// (the source included, when it is otherwise idle), and releases stalled
// synchronization — so it composes with any algorithm's own use of robot 0.
func (rp *Repairer) monitor(p *sim.Proc) {
	e := p.Engine()
	for {
		p.Wait(rp.cfg.Poll)
		now := p.Now()
		// Resolve watches: completed branches are dropped, expired ones are
		// converted to orphans.
		live := rp.watches[:0]
		for _, w := range rp.watches {
			pending := false
			for _, id := range w.ids {
				if e.Robot(id).State() == sim.Asleep {
					pending = true
					break
				}
			}
			if !pending {
				continue
			}
			if now >= w.deadline {
				for _, id := range w.ids {
					if e.Robot(id).State() == sim.Asleep {
						rp.orphans = append(rp.orphans, id)
					}
				}
				continue
			}
			live = append(live, w)
		}
		rp.watches = live
		// Quiescent sweep: nothing is scheduled, robots remain asleep, and
		// no watch covers them — branches lost outside tree propagation
		// (exploration wakes, escorts) land here.
		if e.Quiescent() && e.AsleepCount() > 0 && len(rp.watches) == 0 && len(rp.orphans) == 0 {
			rp.orphans = e.AppendAsleep(rp.orphans)
		}
		dispatched := 0
		if len(rp.orphans) > 0 {
			dispatched = rp.rescue(e)
		}
		if !e.Quiescent() {
			continue
		}
		// Quiescent: whatever is parked now can only be released by us.
		if e.ParkedCount() > 0 {
			if n := e.ReleaseStalled(); n > 0 {
				e.RecordRepair(sim.SourceID, fmt.Sprintf("release-stalled %d", n))
			}
			continue
		}
		if e.AsleepCount() == 0 {
			return
		}
		if dispatched == 0 && len(rp.watches) == 0 {
			// Hopeless: sleepers remain but every rescue avenue is exhausted
			// (attempt caps hit, or no live rescuer exists). Terminate so
			// the run can report its partial completion.
			return
		}
	}
}

// rescue re-parents the orphan queue: the still-asleep, not-given-up orphans
// become one fresh wake tree rooted at the nearest idle awake robot. Returns
// the number of rescues dispatched (0 or 1 — one rescuer takes the whole
// batch and fans out through tree propagation).
func (rp *Repairer) rescue(e *sim.Engine) int {
	sort.Ints(rp.orphans)
	still := rp.idbuf[:0]
	for i, id := range rp.orphans {
		if i > 0 && id == rp.orphans[i-1] {
			continue
		}
		if e.Robot(id).State() != sim.Asleep || rp.attempts[id] >= repairMaxAttempts {
			continue
		}
		still = append(still, id)
	}
	rp.orphans = rp.orphans[:0]
	rp.idbuf = still
	if len(still) == 0 {
		return 0
	}
	rid := rp.pickRescuer(e, still[0])
	if rid < 0 {
		// No idle live rescuer right now; requeue and retry next tick.
		rp.orphans = append(rp.orphans, still...)
		return 0
	}
	for _, id := range still {
		rp.attempts[id]++
	}
	ids := append([]int(nil), still...)
	e.RecordRepair(rid, fmt.Sprintf("rescue %d", len(ids)))
	e.Spawn(rid, func(q *sim.Proc) {
		// Re-filter at run time (a racing branch may have woken some), then
		// build a fresh tree from the rescuer's position — re-parenting by
		// reconstruction — and propagate it under the same repair layer.
		// Continuations are not re-attached: the orphans' round duties died
		// with their branch, and the stalled-release path absorbs whatever
		// synchronization was counting on them.
		ts := rp.tbuf[:0]
		for _, id := range ids {
			r := q.Engine().Robot(id)
			if r.State() != sim.Asleep {
				continue
			}
			t := Target{ID: id, Pos: r.Pos()}
			if q.Engine().Heterogeneous() {
				t.Speed = r.Speed()
				if b := r.Budget(); !math.IsInf(b, 1) {
					t.Capacity = b - r.Energy()
				}
			}
			ts = append(ts, t)
		}
		rp.tbuf = ts[:0]
		if len(ts) == 0 {
			return
		}
		b := BuilderOf(q.Engine())
		root := b.BuildIn(q.Engine().Metric(), q.Self().Pos(), ts)
		_ = b.propagate(q, root, nil, rp)
	})
	return 1
}

// pickRescuer returns the awake, live, idle robot nearest (in travel time)
// to orphan robot `to`, or -1 when none exists. The source counts as idle
// when the monitor is its only live process — it never moves for the
// monitor, so a rescue process may drive it freely.
func (rp *Repairer) pickRescuer(e *sim.Engine, to int) int {
	dst := e.Robot(to).Pos()
	best, bd := -1, math.Inf(1)
	for id := 0; id < e.NumRobots(); id++ {
		r := e.Robot(id)
		if r.State() != sim.Awake || r.Halted() || e.Down(id) || e.IsByzantine(id) {
			continue
		}
		idle := 0
		if id == sim.SourceID {
			idle = 1 // the monitor itself
		}
		if e.LiveProcs(id) != idle {
			continue
		}
		if d := e.Metric().Dist(r.Pos(), dst) / r.Speed(); d < bd {
			best, bd = id, d
		}
	}
	return best
}
