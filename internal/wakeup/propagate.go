package wakeup

import "freezetag/internal/sim"

// Propagate realizes a wake-up tree on the simulator, implementing the
// paper's Algorithm 1 ("Propagate Wake-Up Tree"). The calling process moves
// to the root, wakes it, and the tree is split between waker and woken at
// every step: the woken robot takes Children[0], the waker continues with
// Children[1]. Each woken robot runs cont (may be nil) once its share of the
// propagation is complete — this is how AGrid/AWave attach round
// participation to freshly awakened robots.
//
// Propagate returns when the caller's own share is done; other branches
// continue in their own processes. Robots in the tree must still be asleep
// when reached — the paper's conflict-freedom precondition (Lemma 2), which
// the callers establish by operating in exclusive regions.
func Propagate(p *sim.Proc, root *Node, cont func(*sim.Proc)) error {
	var b Builder
	return b.Propagate(p, root, cont)
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

// Propagate is the package-level Propagate drawing its per-wake handlers
// from the Builder's slab. The walk, the wake order, and every spawned
// process are identical; only the handler storage differs.
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

// propagate is the one tree walk behind Propagate and the repair layer's
// rescues. rp is the armed repair layer, or nil when there is none. With
// one, every handoff is watched, a dropped wake or crashed carrier orphans
// its branch instead of silently losing it, and a stale roster (double
// coverage by a rescue) is tolerated; the walk and wake order are the same
// either way.
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
