package sim

import (
	"fmt"
	"math"
	"sort"

	"freezetag/internal/geom"
	"freezetag/internal/rngstream"
)

// FaultKind selects the failure model a FaultPlan injects. The kinds map the
// related work's fault taxonomy onto the Look-Compute-Move model: crash-stop
// and crash-recovery are the classic process-failure models applied to robot
// movement, the wake faults are the unreliable-channel analogue (a co-located
// Wake is the model's only communication primitive), and Byzantine hands k
// robots to the adversary.
type FaultKind int

const (
	// FaultNone injects nothing; a plan with this kind only changes the
	// engine into its fault-tolerant mode (roster panics become skips).
	FaultNone FaultKind = iota
	// FaultCrashStop halts a faulty robot mid-move at a drawn odometer
	// reading; it stays down for the rest of the run.
	FaultCrashStop
	// FaultCrashRecovery is FaultCrashStop followed by a drawn downtime,
	// after which the robot resumes, in place, whatever move it was making.
	FaultCrashRecovery
	// FaultWakeDrop makes a co-located Wake fail silently with probability
	// Rate: the target stays asleep and the waker does not notice.
	FaultWakeDrop
	// FaultWakeDup makes a Wake fire twice with probability Rate. Waking is
	// at-least-once, so the duplicate is absorbed; it is observable as a
	// fault event and counter (and is what a repair layer must tolerate).
	FaultWakeDup
	// FaultByzantine hands Byzantine robots to the adversary: when such a
	// robot is woken with a handler, the handler is replaced by the plan's
	// WanderPath program — the robot wanders instead of doing its share.
	FaultByzantine
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCrashStop:
		return "crash-stop"
	case FaultCrashRecovery:
		return "crash-recovery"
	case FaultWakeDrop:
		return "wake-drop"
	case FaultWakeDup:
		return "wake-dup"
	case FaultByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultPlan is a deterministic fault-injection schedule. Every draw comes
// from splitmix64 streams derived from Seed (the rngstream scheme shared with
// the experiment and portfolio engines): crash assignments and crash points
// use one stream per robot, wake faults one sequential stream, Byzantine
// selection its own stream — so the same (instance, plan) pair always injects
// the identical fault sequence, at any worker count.
//
// The source robot (id 0) is immune to every kind: the model's source is the
// trusted coordinator, and its immunity is what makes repair-layer
// completion guarantees possible at all.
type FaultPlan struct {
	// Kind selects the failure model.
	Kind FaultKind
	// Seed roots every derived stream.
	Seed int64
	// Rate is the per-robot fault probability for the crash kinds and the
	// per-wake fault probability for the wake kinds. Ignored by Byzantine.
	Rate float64
	// CrashDist scales the odometer reading at which a faulty robot's next
	// crash fires (drawn uniformly from [0, CrashDist)); ≤ 0 means 1.
	CrashDist float64
	// Downtime scales a crash-recovery outage: down for (0.5+u)·Downtime
	// with u uniform in [0,1); ≤ 0 means 1.
	Downtime float64
	// Byzantine is the number of adversary-controlled robots (FaultByzantine
	// only), chosen by a seeded shuffle of ids 1..n.
	Byzantine int
	// WanderPath, for Byzantine robots, returns the path robot id wanders
	// along instead of executing its handler. Nil means the robot simply
	// does nothing when woken.
	WanderPath func(id int, from geom.Point) []geom.Point
}

// FaultStats counts injected faults and repair actions. All counts are
// deterministic: they are incremented on the single-threaded event loop.
type FaultStats struct {
	// CrashStops and Recoveries count crash events (a crash-recovery robot
	// counts one Recovery per outage; CrashStops are permanent).
	CrashStops int64
	Recoveries int64
	// WakeDrops and WakeDups count injected wake faults.
	WakeDrops int64
	WakeDups  int64
	// ByzTakeovers counts handler substitutions on Byzantine robots.
	ByzTakeovers int64
	// RosterSkips counts tolerated stale-roster operations (a Wake or Escort
	// aimed at a robot that is no longer asleep / co-located) — panics in
	// the fault-free model, runtime conditions under fault injection.
	RosterSkips int64
	// Repairs counts repair-layer interventions (rescue dispatches and
	// stalled-process releases).
	Repairs int64
}

// Injected returns the total number of injected faults (repairs and roster
// skips are consequences, not injections).
func (s FaultStats) Injected() int64 {
	return s.CrashStops + s.Recoveries + s.WakeDrops + s.WakeDups + s.ByzTakeovers
}

// ErrCrashed is the error a move returns when the moving robot's injected
// crash fires. Crash-stop leaves the robot down for good; the crash-recovery
// path handles the outage internally and never surfaces this error.
type ErrCrashed struct{ Robot int }

// Error implements error.
func (e *ErrCrashed) Error() string {
	return fmt.Sprintf("sim: robot %d crashed", e.Robot)
}

// installFaults seeds the per-robot fault state from plan. Called from
// populate, so a pooled engine re-derives the identical assignment on every
// Reset with the same plan.
func (e *Engine) installFaults(plan *FaultPlan) {
	switch plan.Kind {
	case FaultCrashStop, FaultCrashRecovery:
		scale := plan.CrashDist
		if scale <= 0 {
			scale = 1
		}
		for i := 1; i < len(e.robots); i++ {
			rnd := rngstream.New(plan.Seed, i)
			if rnd.Float64() >= plan.Rate {
				continue
			}
			r := e.robots[i]
			r.faulty = true
			r.crashAt = rnd.Float64() * scale
			r.frnd = rnd
		}
	case FaultWakeDrop, FaultWakeDup:
		e.wakeRand = rngstream.New(plan.Seed, 0)
	case FaultByzantine:
		n := len(e.robots) - 1
		k := plan.Byzantine
		if k > n {
			k = n
		}
		if k <= 0 {
			return
		}
		// Partial Fisher–Yates over ids 1..n on a dedicated stream picks the
		// k adversary-controlled robots; the id buffer borrows the engine's
		// query scratch (no queries are in flight during populate).
		rnd := rngstream.New(plan.Seed, -1)
		buf := e.queryBuf[:0]
		for i := 1; i <= n; i++ {
			buf = append(buf, i)
		}
		for i := 0; i < k; i++ {
			j := i + rnd.Intn(n-i)
			buf[i], buf[j] = buf[j], buf[i]
			e.robots[buf[i]].byz = true
		}
		e.queryBuf = buf[:0]
	}
}

// FaultsEnabled reports whether the engine runs under a fault plan. It flips
// the roster contracts from panic-on-bug to tolerate-and-count: under
// injection a stale roster is a runtime condition, not an algorithm bug.
func (e *Engine) FaultsEnabled() bool { return e.faults != nil }

// FaultStats returns the fault counters accumulated so far; the final values
// are also carried on Result.Faults.
func (e *Engine) FaultStats() FaultStats { return e.fstats }

// IsByzantine reports whether robot id is adversary-controlled.
func (e *Engine) IsByzantine(id int) bool { return e.Robot(id).byz }

// Down reports whether robot id is currently in a crash outage (permanently
// for crash-stop).
func (e *Engine) Down(id int) bool { return e.Robot(id).downUntil > e.now }

// LiveProcs returns the number of live processes running on robot id. Repair
// code uses it to pick idle rescuers and to avoid stacking movement-conflict
// processes on one robot.
func (e *Engine) LiveProcs(id int) int { return e.Robot(id).procs }

// Quiescent reports whether nothing besides the calling process is scheduled.
// Only meaningful from inside a running process (the engine pops the caller's
// own event before resuming it).
func (e *Engine) Quiescent() bool { return len(e.pq) == 0 }

// ParkedCount returns the number of processes parked indefinitely (barriers,
// wait-groups). A quiescent engine with parked processes is a deadlock in the
// making; repair code releases them via ReleaseStalled.
func (e *Engine) ParkedCount() int { return len(e.parked) }

// AppendAsleep appends the ids of all robots still asleep to buf, in
// ascending id order.
func (e *Engine) AppendAsleep(buf []int) []int {
	for _, r := range e.robots {
		if r.state == Asleep {
			buf = append(buf, r.id)
		}
	}
	return buf
}

// RecordRepair counts one repair-layer intervention attributed to robot id
// and emits the "repair" trace event.
func (e *Engine) RecordRepair(id int, note string) {
	e.fstats.Repairs++
	e.emit(Event{T: e.now, Robot: id, Kind: "repair", Pos: e.Robot(id).pos, Extra: note})
}

// ReleaseStalled re-enqueues every indefinitely-parked process at the current
// time and voids the synchronization they were parked on: all barrier records
// are dropped and every engine-built WaitGroup is zeroed (so released waiters
// that re-check it fall through, and stragglers' Done calls are absorbed).
// It returns the number of processes released.
//
// This is the self-stabilization escape hatch: when injected faults have
// killed the branches that would have released a barrier or wait-group, the
// parked survivors would deadlock the run. Repair code calls this only when
// the engine is otherwise quiescent, so a released process resumes into a
// world where the work it was waiting on is provably never coming.
func (e *Engine) ReleaseStalled() int {
	n := len(e.parked)
	if n > 0 {
		// Deterministic release order: sort by spawn sequence (map iteration
		// order would leak into the schedule otherwise).
		procs := make([]*Proc, 0, n)
		for p := range e.parked {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i].pid < procs[j].pid })
		for _, p := range procs {
			e.push(p, e.now)
		}
	}
	clear(e.barriers)
	for _, w := range e.wgs {
		w.count = 0
		w.waiters = w.waiters[:0]
	}
	return n
}

// moveFaulty is the crash-kind move path for a robot carrying a fault
// assignment: the move is cut at the odometer reading where the next crash
// fires. Crash-stop halts the robot for good and returns *ErrCrashed;
// crash-recovery parks it for a drawn downtime and then resumes the move
// from where it stopped (redrawing the next crash point).
func (p *Proc) moveFaulty(dst geom.Point, speed float64) error {
	for {
		d := p.eng.dist(p.r.pos, dst)
		if d <= geom.Eps {
			return nil
		}
		gap := p.r.crashAt - p.r.energy
		if gap > d-geom.Eps || gap > p.r.remaining()+geom.Eps {
			// The crash point lies beyond this move (or beyond the budget,
			// which halts the robot first anyway): plain move semantics.
			return p.moveLeg(dst, d, speed)
		}
		if gap > 0 {
			stop := geom.MoveToward(p.eng.metric, p.r.pos, dst, gap)
			p.yieldAt(p.eng.now + gap/speed)
			p.eng.moveRobot(p.r, stop, gap)
		}
		plan := p.eng.faults
		p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-crash", Pos: p.r.pos})
		if plan.Kind == FaultCrashStop {
			p.r.stopped = true
			p.r.downUntil = math.Inf(1)
			p.eng.fstats.CrashStops++
			return &ErrCrashed{Robot: p.r.id}
		}
		mean := plan.Downtime
		if mean <= 0 {
			mean = 1
		}
		p.eng.fstats.Recoveries++
		p.r.downUntil = p.eng.now + (0.5+p.r.frnd.Float64())*mean
		p.yieldAt(p.r.downUntil)
		p.r.downUntil = 0
		p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-recover", Pos: p.r.pos})
		scale := plan.CrashDist
		if scale <= 0 {
			scale = 1
		}
		p.r.crashAt = p.r.energy + p.r.frnd.Float64()*scale
		// Loop: continue the interrupted move toward dst.
	}
}

// escortCrash fires a passive escort member's crash when it lies inside the
// segment of length d the team just covered toward dst. Passive members have
// no process of their own, so Escort is the only place their odometer
// advances and hence the only place their crash can fire. Returns true when
// the member crashed (it is dropped from the team where it fell); the crash
// position is applied at the team's arrival time, matching how Escort already
// applies member budget exhaustion.
func (p *Proc) escortCrash(r *Robot, dst geom.Point, d float64) bool {
	gap := r.crashAt - r.energy
	if gap > d-geom.Eps || gap > r.remaining()+geom.Eps {
		return false
	}
	if gap < 0 {
		gap = 0
	}
	stop := geom.MoveToward(p.eng.metric, r.pos, dst, gap)
	p.eng.moveRobot(r, stop, gap)
	p.eng.emit(Event{T: p.eng.now, Robot: r.id, Kind: "fault-crash", Pos: r.pos})
	plan := p.eng.faults
	if plan.Kind == FaultCrashStop {
		r.stopped = true
		r.downUntil = math.Inf(1)
		p.eng.fstats.CrashStops++
		return true
	}
	mean := plan.Downtime
	if mean <= 0 {
		mean = 1
	}
	p.eng.fstats.Recoveries++
	r.downUntil = p.eng.now + (0.5+r.frnd.Float64())*mean
	scale := plan.CrashDist
	if scale <= 0 {
		scale = 1
	}
	r.crashAt = r.energy + r.frnd.Float64()*scale
	return true
}

// wakeFaulted is the WakeH path under a fault plan: stale rosters are
// tolerated (counted, not panicked — a repair process may have raced the
// original schedule here), and the wake itself is subjected to the plan's
// channel faults.
func (p *Proc) wakeFaulted(id int, handler Handler) {
	r := p.eng.Robot(id)
	if r.state != Asleep || !p.r.pos.Eq(r.pos) {
		p.eng.fstats.RosterSkips++
		p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-roster", Pos: p.r.pos,
			Extra: fmt.Sprintf("wake %d", id)})
		return
	}
	switch plan := p.eng.faults; plan.Kind {
	case FaultWakeDrop:
		if p.eng.wakeRand.Float64() < plan.Rate {
			p.eng.fstats.WakeDrops++
			p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-wakedrop", Pos: p.r.pos,
				Extra: fmt.Sprintf("wake %d", id)})
			return
		}
	case FaultWakeDup:
		if p.eng.wakeRand.Float64() < plan.Rate {
			// The duplicate fires into a robot that is awake by the time it
			// lands; waking is at-least-once, so it is absorbed.
			p.eng.fstats.WakeDups++
			p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-wakedup", Pos: p.r.pos,
				Extra: fmt.Sprintf("wake %d", id)})
		}
	}
	p.eng.wake(id)
	if handler != nil {
		p.eng.SpawnH(id, handler)
	}
}

// TryWake is the fault-aware Wake: instead of treating a stale roster as an
// algorithm bug it reports the outcome. It returns true when robot id ends up
// awake by this call, false when the target was not asleep, not co-located,
// or the wake was dropped by an injected fault. Repair code uses it to
// re-wake orphans without racing the original schedule.
func (p *Proc) TryWake(id int, handler Handler) bool {
	r := p.eng.Robot(id)
	if r.state != Asleep || !p.r.pos.Eq(r.pos) {
		return false
	}
	p.WakeH(id, handler)
	return r.state == Awake
}

// byzHandler replaces the real handler on an adversary-controlled robot: the
// robot wanders the plan's path instead of doing its share of the schedule.
type byzHandler struct{ plan *FaultPlan }

// RunProc implements Handler.
func (b byzHandler) RunProc(p *Proc) {
	if b.plan == nil || b.plan.WanderPath == nil {
		return
	}
	// Budget exhaustion or a crash just strands the wanderer early.
	_ = p.MovePath(b.plan.WanderPath(p.r.id, p.r.pos))
}
