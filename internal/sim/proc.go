package sim

import (
	"fmt"

	"freezetag/internal/geom"
)

// Proc is the blocking API one robot process programs against. All methods
// must be called from the process's own goroutine (the function passed to
// Spawn or Wake); the engine guarantees only one process runs at a time, so
// Proc methods may freely read and mutate engine state.
type Proc struct {
	eng    *Engine
	r      *Robot
	resume chan struct{}
	killed bool    // set by the engine to unwind a deadlocked process
	fn     Handler // body to run on next resume; cleared once started
	pid    int64   // spawn sequence number; orders stalled-process releases
}

// errKilled unwinds a process goroutine that the engine terminated while it
// was parked: either on a barrier that can never release (deadlock shutdown
// path) or anywhere at all after the run's context was cancelled (RunCtx).
var errKilled = &struct{ s string }{"sim: process killed"}

// loop is the process goroutine. On a pooled engine it survives the body:
// after reporting parkDone it waits for the engine to hand it a new body via
// SpawnH (the engine recycles the record through procFree). On a one-shot
// engine it exits after a single body, preserving the original lifecycle. A
// kill — before the body ever ran or anywhere inside it — always exits the
// goroutine: a killed process's state is unknown, so it never rejoins the
// pool.
func (p *Proc) loop() {
	for {
		<-p.resume
		if p.killed {
			return
		}
		p.runOne()
		if p.killed {
			return
		}
		p.eng.park <- parkMsg{p: p, kind: parkDone}
		if !p.eng.pooled {
			return
		}
	}
}

// runOne executes the pending body, converting the errKilled unwind panic
// back into a normal return (the caller checks p.killed); any other panic is
// a genuine algorithm bug and propagates.
func (p *Proc) runOne() {
	defer func() {
		if rec := recover(); rec != nil && rec != errKilled {
			panic(rec)
		}
	}()
	fn := p.fn
	p.fn = nil
	fn.RunProc(p)
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
// killed (cancelled run) unwinds here instead of parking: the engine's event
// loop is gone, so parking again would block forever.
func (p *Proc) yieldAt(t float64) {
	if p.killed {
		panic(errKilled)
	}
	p.eng.park <- parkMsg{p: p, kind: parkYield, at: t}
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// parkWait parks the process indefinitely; some other process re-enqueues it.
func (p *Proc) parkWait() {
	if p.killed {
		panic(errKilled)
	}
	p.eng.park <- parkMsg{p: p, kind: parkWait}
	<-p.resume
	if p.killed {
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
// leader down to the pace of its slowest member.
func (p *Proc) moveToAt(dst geom.Point, speed float64) error {
	if p.r.faulty {
		return p.moveFaulty(dst, speed)
	}
	d := p.eng.dist(p.r.pos, dst)
	if d <= geom.Eps {
		return nil
	}
	return p.moveLeg(dst, d, speed)
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

// Snapshot is the result of a Look: the robots visible within distance 1,
// separated by status, with their *current* positions. For sleeping robots
// the current position is the initial position p_i.
type Snapshot struct {
	Asleep []Sighting
	Awake  []Sighting
}

// Sighting is one visible robot.
type Sighting struct {
	ID  int
	Pos geom.Point
}

// Look performs a discrete snapshot: all robots within metric distance 1 of
// the caller, in ascending id order. The caller itself is excluded.
//
// The snapshot's slices are the engine's own Look buffers, so a Look
// allocates nothing once they have grown to the largest Look of the run.
// A snapshot is valid until the next Look on the same engine, by any
// process: a caller that keeps sightings across a call that can block
// (MoveTo, Wait, Barrier, ...) copies them first.
func (p *Proc) Look() Snapshot {
	e := p.eng
	e.looks++
	e.lookAsleep = e.sightings(e.lookAsleep, e.sleepingWithin(p.r.pos, 1), -1)
	e.lookAwake = e.sightings(e.lookAwake, e.awakeWithin(p.r.pos, 1), p.r.id)
	e.emit(Event{T: e.now, Robot: p.r.id, Kind: "look", Pos: p.r.pos})
	return Snapshot{Asleep: e.lookAsleep, Awake: e.lookAwake}
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
// place and is dropped from the team — as is any member already halted by an
// earlier exhaustion or, once the run has recorded a budget violation, any
// member no longer awake beside the caller, so a stale roster keeps working;
// the returned slice holds the ids that completed the move (the caller is
// not listed). A caller budget exhaustion returns the error and moves
// nobody further.
func (p *Proc) Escort(ids []int, dst geom.Point) ([]int, error) {
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
		return nil, err
	}
	arrived := make([]int, 0, len(ids))
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
		arrived = append(arrived, id)
	}
	return arrived, nil
}

// Barrier parks the process until need processes in total have arrived at the
// same key, then releases them all at the arrival time of the last. Keys are
// single-use: the barrier is deleted on release, and its record is kept for
// the engine's next barrier.
func (p *Proc) Barrier(key string, need int) {
	if need <= 0 {
		panic("sim: Barrier needs a positive count")
	}
	if need == 1 {
		// A one-party barrier releases its sole arriver immediately; the
		// general path below would build and tear down a barrier record for
		// nothing. Only the count-mismatch check and the trace event are
		// observable, so that is all this path does.
		if b := p.eng.barriers[key]; b != nil {
			panic(fmt.Sprintf("sim: Barrier %q count mismatch: %d vs %d", key, b.need, need))
		}
		p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "barrier", Pos: p.r.pos, Extra: key})
		return
	}
	b := p.eng.barriers[key]
	if b == nil {
		if n := len(p.eng.barrierFree); n > 0 {
			b = p.eng.barrierFree[n-1]
			p.eng.barrierFree = p.eng.barrierFree[:n-1]
			b.need = need
		} else {
			b = &barrier{need: need}
		}
		p.eng.barriers[key] = b
	}
	if b.need != need {
		panic(fmt.Sprintf("sim: Barrier %q count mismatch: %d vs %d", key, b.need, need))
	}
	p.eng.emit(Event{T: p.eng.now, Robot: p.r.id, Kind: "barrier", Pos: p.r.pos, Extra: key})
	if len(b.waiters)+1 == need {
		// Last arriver releases everyone, sorted for determinism. Waiter
		// lists are team-sized; insertion sort keeps the release path free
		// of sort.Slice's reflection allocations.
		ws := b.waiters
		delete(p.eng.barriers, key)
		for i := 1; i < len(ws); i++ {
			for j := i; j > 0 && ws[j].r.id < ws[j-1].r.id; j-- {
				ws[j], ws[j-1] = ws[j-1], ws[j]
			}
		}
		for _, w := range ws {
			p.eng.push(w, p.eng.now)
		}
		b.waiters = ws[:0]
		p.eng.barrierFree = append(p.eng.barrierFree, b)
		return
	}
	b.waiters = append(b.waiters, p)
	p.parkWait()
}
