package wakeup

import (
	"math"
	"sort"

	"freezetag/internal/sim"
)

// WakeAsleep is the wake step every algorithm and the repair layer end a
// region with: one wake-up tree, rooted at the caller's position, over the
// robots of ids that are still asleep, realized by Algorithm 1 with cont
// attached to every woken robot. ids may come in any order and repeat; it
// is sorted in place, and the tree is built over the distinct ids in
// ascending order. Each target's position — and, on a heterogeneous engine,
// its speed and remaining energy — is read from the engine's robot record,
// and the tree comes from the engine's pooled Builder, so a steady stream
// of wakes allocates nothing. An armed repair layer watches every handoff
// (see Builder.Propagate).
func WakeAsleep(p *sim.Proc, ids []int, cont func(*sim.Proc)) error {
	e := p.Engine()
	b := BuilderOf(e)
	sort.Ints(ids)
	b.stage = b.stage[:0]
	for i, id := range ids {
		r := e.Robot(id)
		if (i > 0 && id == ids[i-1]) || r.State() != sim.Asleep {
			continue
		}
		t := Target{ID: id, Pos: r.Pos()}
		if e.Heterogeneous() {
			// Profile-free engines keep the zero-valued targets that
			// reproduce the pre-profile trees exactly (see BuildTreeIn).
			t.Speed = r.Speed()
			if c := r.Budget(); !math.IsInf(c, 1) {
				t.Capacity = c - r.Energy()
			}
		}
		b.stage = append(b.stage, t)
	}
	return b.Propagate(p, b.BuildIn(e.Metric(), p.Self().Pos(), b.stage), cont)
}

// propHandler is the wake handler of one tree node, carved from the
// Builder's handler slab: waking a wave of n robots installs n handlers
// without capturing n closures. It stays live until its process has run, so
// the slab rewinds only between runs (ResetRun).
type propHandler struct {
	b    *Builder
	sub  *Node
	cont func(*sim.Proc)
}

// RunProc implements sim.Handler: the woken robot propagates the subtree it
// was handed, then joins the continuation.
func (h *propHandler) RunProc(q *sim.Proc) {
	if h.sub != nil {
		// Budget exhaustion surfaces via engine violations; the branch
		// simply stops where it halted.
		_ = h.b.Propagate(q, h.sub, h.cont)
	}
	if h.cont != nil {
		h.cont(q)
	}
}

// Propagate realizes a wake-up tree on the simulator, implementing the
// paper's Algorithm 1 ("Propagate Wake-Up Tree"). The calling process moves
// to the root, wakes it, and the tree is split between waker and woken at
// every step: the woken robot takes Children[0], the waker continues with
// Children[1]. Each woken robot runs cont (may be nil) once its share of the
// propagation is complete — this is how AGrid/AWave attach round
// participation to freshly awakened robots. The per-wake handlers come from
// the Builder's slab, so waking a wave of n robots captures no closures.
//
// Propagate returns when the caller's own share is done; other branches
// continue in their own processes. Robots in the tree must still be asleep
// when reached — the paper's conflict-freedom precondition (Lemma 2), which
// the callers establish by operating in exclusive regions.
//
// Under a fault plan with an armed repair layer (InstallRepair) every
// handoff is watched as well; fault-free runs take the plain wakes.
func (b *Builder) Propagate(p *sim.Proc, root *Node, cont func(*sim.Proc)) error {
	var rp *Repairer
	if e := p.Engine(); e.FaultsEnabled() {
		if r := repairerOf(e); r.installed {
			rp = r
		}
	}
	return b.propagate(p, root, cont, rp)
}

// propagate is the one tree walk behind Propagate. rp is the armed repair
// layer, or nil when there is none. With one, every handoff is watched, a
// dropped wake or crashed carrier orphans its branch instead of silently
// losing it, and a stale roster (double coverage by a rescue) is tolerated;
// the walk and wake order are the same either way.
func (b *Builder) propagate(p *sim.Proc, root *Node, cont func(*sim.Proc), rp *Repairer) error {
	node := root
	for node != nil {
		if err := p.MoveTo(node.Pos); err != nil {
			if rp != nil {
				// Carrier crashed or ran dry: everything it still owed is
				// orphaned for the monitor to re-parent.
				rp.orphanSubtree(node)
			}
			return err
		}
		var woken, kept *Node
		switch len(node.Children) {
		case 0:
			// Leaf: woken robot only runs its continuation.
		case 1:
			// Unique child: the woken robot takes it, the waker stops.
			woken = node.Children[0]
		default:
			woken, kept = node.Children[0], node.Children[1]
		}
		hs := b.hands.Take(1)
		hs = append(hs, propHandler{b: b, sub: woken, cont: cont})
		switch {
		case rp == nil:
			p.WakeH(node.ID, &hs[0])
		case p.TryWake(node.ID, &hs[0]):
			if woken != nil {
				rp.addWatch(p.Engine(), node, woken)
			}
		default:
			// The wake did not take: an injected drop (node still asleep) or
			// double coverage (a rescue got here first, and may not have
			// covered our woken share). Requeue whatever is still asleep.
			if p.Engine().Robot(node.ID).State() == sim.Asleep {
				rp.orphans = append(rp.orphans, node.ID)
			}
			if woken != nil {
				rp.orphanSubtree(woken)
			}
		}
		node = kept
	}
	return nil
}
