package sim

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"

	"freezetag/internal/geom"
)

// Proc is the blocking API one robot process programs against. All methods
// must be called from the process's own body (the function passed to Spawn
// or Wake), which runs as a coroutine of the engine's event loop; only one
// process runs at a time, so Proc methods may freely read and mutate engine
// state.
type Proc struct {
	eng *Engine
	r   *Robot
	fn  Handler // body to run on next resume; cleared once started
	pid int64   // spawn sequence number; orders stalled-process releases
	// The process's coroutine (iter.Pull over loop): next resumes it until
	// it parks and stop unwinds it, both on the engine's goroutine alone;
	// yield parks it, and returns false once stop has been called.
	next  func() (parkMsg, bool)
	stop  func()
	yield func(parkMsg) bool
	// barrier is the barrier the process is parked at, if any, so that
	// ReleaseStalled can empty it.
	barrier *Barrier
}

// errKilled unwinds a process that the engine stopped while it was parked:
// on a barrier that can never release (deadlock), anywhere at all after the
// run's context was cancelled, or after another process panicked.
var errKilled = &struct{ s string }{"sim: process killed"}

// loop is the process's coroutine. It runs one body per spawn, yielding
// parkDone after each and waiting there for SpawnH to hand it the next,
// until the engine stops it.
func (p *Proc) loop(yield func(parkMsg) bool) {
	p.yield = yield
	for p.runOne() && yield(parkMsg{kind: parkDone}) {
	}
}

// runOne executes the pending body and reports whether it returned: a body
// unwound by stop (the errKilled panic) did not. Any other panic becomes a
// *PanicError carrying the robot id and the stack of the frame that raised
// it, which the re-panic in next, on the engine's goroutine, would not show.
func (p *Proc) runOne() (ok bool) {
	defer func() {
		if rec := recover(); rec != nil && rec != errKilled {
			panic(&PanicError{Robot: p.r.id, Value: rec, Stack: debug.Stack()})
		}
	}()
	fn := p.fn
	p.fn = nil
	fn.RunProc(p)
	return true
}

// ID returns the robot id this process runs on.
func (p *Proc) ID() int { return p.r.id }

// Self returns the robot record.
func (p *Proc) Self() *Robot { return p.r }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Engine returns the owning engine, for read-only queries by harness code.
func (p *Proc) Engine() *Engine { return p.eng }

// yieldAt parks the process until virtual time t. A process the engine has
// stopped unwinds here instead of parking.
func (p *Proc) yieldAt(t float64) {
	if !p.yield(parkMsg{kind: parkYield, at: t}) {
		panic(errKilled)
	}
}

// parkWait parks the process indefinitely; some other process re-enqueues
// it. A process the engine has stopped unwinds here instead of parking.
func (p *Proc) parkWait() {
	if !p.yield(parkMsg{kind: parkWait}) {
		panic(errKilled)
	}
}

// ErrBudget is the error type reported when a move would exceed the robot's
// energy budget. The robot is halted in place with its budget exhausted up to
// the reachable prefix of the move, matching the model where a robot simply
// cannot move further.
type ErrBudget struct {
	Robot  int
	Needed float64
	Left   float64
}

// Error implements error.
func (e *ErrBudget) Error() string {
	return fmt.Sprintf("sim: robot %d out of energy (needs %.4g, has %.4g)", e.Robot, e.Needed, e.Left)
}

// MoveTo moves the robot in a straight line to dst at its own speed,
// blocking for virtual time equal to the metric distance divided by the
// robot's speed (straight segments are geodesics of every supported
// metric; homogeneous robots have speed exactly 1, so the division is the
// identity). If the move would exceed the energy budget the robot advances
// as far as its budget allows, is halted, and an *ErrBudget is returned —
// budgets bound distance, not time, so a fast robot drains its budget no
// slower per meter than a slow one.
func (p *Proc) MoveTo(dst geom.Point) error {
	return p.moveToAt(dst, p.r.speed)
}

// moveToAt is MoveTo at an explicit speed: Escort uses it to slow a team
// leader down to the pace of its slowest member. A robot that has stopped
// stays where it stopped: its halt or crash was recorded once, when it
// happened, so a later move is refused with the same error, untraced and
// uncounted.
func (p *Proc) moveToAt(dst geom.Point, speed float64) error {
	if p.r.faulty && !p.r.stopped {
		return p.moveFaulty(dst, speed)
	}
	d := p.eng.dist(p.r.pos, dst)
	switch {
	case d <= geom.Eps:
		return nil
	case !p.r.stopped:
		return p.moveLeg(dst, d, speed)
	case math.IsInf(p.r.downUntil, 1):
		return &ErrCrashed{Robot: p.r.id}
	}
	return &ErrBudget{Robot: p.r.id, Needed: d}
}

// moveLeg finishes a move of metric length d > Eps to dst under the energy
// budget. It is the shared tail of the fault-free and crash-injected move
// paths; the fault-free behavior is exactly the pre-fault moveToAt.
func (p *Proc) moveLeg(dst geom.Point, d, speed float64) error {
	if left := p.r.remaining(); d > left+geom.Eps {
		// Partial move to budget exhaustion, then halt.
		stop := geom.MoveToward(p.eng.metric, p.r.pos, dst, left)
		if left > 0 {
			p.yieldAt(p.eng.now + left/speed)
			p.eng.moveRobot(p.r, stop, left)
		}
		p.r.stopped = true
		err := &ErrBudget{Robot: p.r.id, Needed: d, Left: left}
		p.eng.violations = append(p.eng.violations, err.Error())
		p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "halt", Pos: p.r.pos})
		return err
	}
	p.yieldAt(p.eng.now + d/speed)
	p.eng.moveRobot(p.r, dst, d)
	return nil
}

// MovePath moves the robot along the polyline, stopping early on budget
// exhaustion.
func (p *Proc) MovePath(path []geom.Point) error {
	for _, q := range path {
		if err := p.MoveTo(q); err != nil {
			return err
		}
	}
	return nil
}

// WaitUntil blocks until virtual time t. Times in the past return
// immediately; waiting consumes no energy.
func (p *Proc) WaitUntil(t float64) {
	if t <= p.eng.now {
		return
	}
	p.yieldAt(t)
}

// Wait blocks for duration d ≥ 0.
func (p *Proc) Wait(d float64) {
	if d > 0 {
		p.yieldAt(p.eng.now + d)
	}
}

// Look performs a discrete snapshot: the ids of the sleeping robots within
// metric distance 1 of the caller, in ascending order. A sleeping robot
// never leaves its initial position, so Robot(id).InitPos() is where it was
// seen. Awake robots are not reported: teams know their members by roster
// and co-location, not by sight. Once no robot sleeps, Look returns the
// empty list at once, without querying the index; it is still counted and
// traced like any other.
//
// The list is the engine's own Look buffer, so a Look allocates nothing
// once it has grown to the largest Look of the run. It is valid until the
// next Look on the same engine, by any process: a caller that keeps ids
// across a call that can block (MoveTo, Wait, Await, ...) copies them
// first, and no caller writes through it.
func (p *Proc) Look() []int {
	e := p.eng
	e.looks++
	ids := e.queryBuf[:0]
	// Engine.wake is the only way out of Asleep, so a zero asleepCount is
	// exact: no robot can be seen.
	if e.asleepCount > 0 {
		// One grid query, the woken robots' entries deleted in place.
		ids = e.grid.Within(ids, p.r.pos, 1)
		ids = slices.DeleteFunc(ids, func(id int) bool { return e.robots[id].state != Asleep })
		slices.Sort(ids)
		e.queryBuf = ids
	}
	e.emit(Event{T: e.now, Robot: p.r.id, Kind: "look", Pos: p.r.pos})
	return ids
}

// Wake awakens the co-located sleeping robot id. If handler is non-nil a new
// process is spawned on the awakened robot at the current time; a nil handler
// leaves it awake but passive (a recruited team member escorted by its team
// leader). Wake panics if the robots are not co-located or the target is not
// asleep — both are algorithm bugs, not runtime conditions.
func (p *Proc) Wake(id int, handler func(*Proc)) {
	if handler == nil {
		p.WakeH(id, nil)
		return
	}
	p.WakeH(id, HandlerFunc(handler))
}

// WakeH is Wake taking a Handler; the wake-tree propagation path uses it
// with slab-pooled handlers so that fanning a wave across n robots does not
// allocate n closures.
func (p *Proc) WakeH(id int, handler Handler) {
	if p.eng.faults != nil {
		p.wakeFaulted(id, handler)
		return
	}
	r := p.eng.Robot(id)
	if r.state != Asleep {
		panic(fmt.Sprintf("sim: robot %d is not asleep", id))
	}
	if !p.r.pos.Eq(r.pos) {
		panic(fmt.Sprintf("sim: robot %d at %v cannot wake robot %d at %v: not co-located",
			p.r.id, p.r.pos, id, r.pos))
	}
	p.eng.wake(id)
	if handler != nil {
		p.eng.SpawnH(id, handler)
	}
}

// Escort moves the caller and every robot in ids (all awake, co-located with
// the caller) to dst as one co-located group: everyone pays the distance in
// energy, and the group arrives together after that travel time. The group
// travels at the speed of its slowest member (the caller included) — a team
// stays a team, so its fast robots wait for the slow ones. It implements
// team movement. If any member exhausts its budget, that member halts in
// place and is left behind — as is any member already halted by an earlier
// exhaustion or, once the run has recorded a budget violation, any member
// no longer awake beside the caller, so a stale roster keeps working. Only
// the caller's error is returned: ids is read, never written, and a caller
// that carries a roster across escorts filters it against the robots'
// state. A caller budget exhaustion returns the error and moves nobody
// further.
func (p *Proc) Escort(ids []int, dst geom.Point) error {
	start := p.r.pos
	d := p.eng.dist(start, dst)
	speed := p.r.speed
	faulted := p.eng.faults != nil
	// Once a budget violation is on record, a leader may have run dry
	// mid-move and left its team behind while the algorithm kept the
	// roster: a member that is not awake and co-located is then left where
	// it is, like a halted one. The violation already explains it, so it is
	// not counted as a fault.
	stranded := len(p.eng.violations) > 0
	for _, id := range ids {
		r := p.eng.Robot(id)
		if r.stopped {
			// Halted by an earlier budget exhaustion (already recorded as a
			// violation): the team leaves it where it died rather than
			// treating the stale roster entry as an algorithm bug.
			continue
		}
		stale := r.state != Awake || !r.pos.Eq(start)
		if faulted && stale {
			// Under fault injection a stale roster entry is a runtime
			// condition (a crash or repair raced this team's bookkeeping):
			// the member is left behind and counted, not panicked over.
			p.eng.fstats.RosterSkips++
			p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "fault-roster", Pos: p.r.pos,
				Extra: fmt.Sprintf("escort %d", id)})
			continue
		}
		if stranded && stale {
			continue
		}
		if r.state != Awake {
			panic(fmt.Sprintf("sim: Escort of non-awake robot %d", id))
		}
		if !r.pos.Eq(p.r.pos) {
			panic(fmt.Sprintf("sim: Escort member %d at %v not co-located with leader at %v",
				id, r.pos, p.r.pos))
		}
		if r.speed < speed {
			speed = r.speed
		}
	}
	if err := p.moveToAt(dst, speed); err != nil {
		return err
	}
	for _, id := range ids {
		r := p.eng.Robot(id)
		if r.stopped {
			continue
		}
		if (faulted || stranded) && (r.state != Awake || !r.pos.Eq(start)) {
			// Skipped above (members are passive, so the invalid set cannot
			// change while the leader moves); already counted there.
			continue
		}
		if faulted && r.faulty && p.escortCrash(r, dst, d) {
			continue
		}
		if d > r.remaining()+geom.Eps {
			// Member stops where its budget runs out along the segment.
			left := r.remaining()
			stop := geom.MoveToward(p.eng.metric, r.pos, dst, left)
			p.eng.moveRobot(r, stop, left)
			r.stopped = true
			e := &ErrBudget{Robot: id, Needed: d, Left: left}
			p.eng.violations = append(p.eng.violations, e.Error())
			continue
		}
		p.eng.moveRobot(r, dst, d)
	}
	return nil
}

// Barrier is a meeting point for Need processes, owned by the algorithm code
// that builds it: its participants reach it through the value itself, so
// no name is looked up and no two meetings can collide. A Barrier with Need
// set is ready to use; once released it is empty again and may be met once
// more.
type Barrier struct {
	// Need is the number of processes that must arrive before any leaves.
	Need    int
	waiters []*Proc
}

// Await parks the process at b until b.Need processes in total have
// arrived, then releases them all at the arrival time of the last, in
// ascending robot id. Every arrival emits a "barrier" trace event carrying
// label, which only names the meeting on the trace: callers build it only
// when Engine.Tracing reports a sink.
func (p *Proc) Await(b *Barrier, label string) {
	if b.Need <= 0 {
		panic("sim: Barrier needs a positive count")
	}
	p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "barrier", Pos: p.r.pos, Extra: label})
	if len(b.waiters)+1 < b.Need {
		if b.waiters == nil {
			// Many barriers, a round's among them, are met only once:
			// size the list for all of them up front.
			b.waiters = make([]*Proc, 0, b.Need-1)
		}
		b.waiters = append(b.waiters, p)
		p.barrier = b
		p.parkWait()
		return
	}
	// The last arriver releases everyone, sorted for determinism. Waiter
	// lists are team-sized; insertion sort keeps the release path free of
	// sort.Slice's reflection allocations.
	ws := b.waiters
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].r.id < ws[j-1].r.id; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	for _, w := range ws {
		w.barrier = nil
		p.eng.unpark(w)
	}
	b.waiters = ws[:0]
}
