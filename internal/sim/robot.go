// Package sim implements the paper's Look-Compute-Move robot model as a
// deterministic discrete-event simulator.
//
// Each active robot runs a coroutine ("process", an iter.Pull) executing
// straight-line algorithm code against a blocking API (MoveTo, Look, Wake,
// WaitUntil, and Await at a Barrier the algorithm owns). The event loop
// resumes exactly one process at a time and orders resumptions by (virtual
// time, monotone sequence number), so identical inputs always produce
// identical executions — coroutines give the programming model of
// concurrent robots without nondeterminism.
//
// Model facts enforced here, matching §1.2 of the paper:
//   - robots move at unit speed by default (moving distance δ takes time
//     δ), with all distances measured in the engine's Config.Metric (ℓ2 by
//     default; any ℓp norm may be plugged in — see geom.Metric); a
//     heterogeneous engine (Config.Profiles) gives robot i speed sᵢ, so its
//     moves take time δ/sᵢ while energy stays distance-based;
//   - snapshots are discrete: Look returns the sleeping robots within
//     metric distance 1 at the instant of the call, and movement alone
//     discovers nothing;
//   - waking and variable exchange require co-location;
//   - sleeping robots do nothing until awakened;
//   - each robot optionally carries an energy budget B bounding its total
//     movement length.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"freezetag/internal/geom"
)

// State is the lifecycle state of a robot.
type State int

// Robot lifecycle states. A robot is Asleep until some awake robot wakes it;
// it is then Awake forever (the paper has no re-sleep transition).
const (
	Asleep State = iota + 1
	Awake
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Asleep:
		return "asleep"
	case Awake:
		return "awake"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// SourceID is the robot ID of the source s. Sleeping robots have IDs 1..n
// matching their index in the instance point set.
const SourceID = 0

// Robot is the engine's record of one robot. Fields are read-mostly from
// algorithm code through accessor methods on Proc and Engine.
type Robot struct {
	id      int
	initPos geom.Point
	pos     geom.Point
	state   State
	energy  float64 // total distance moved so far
	budget  float64 // energy budget B; +Inf when unconstrained
	speed   float64 // travel speed (distance δ takes time δ/speed); 1 in the homogeneous model
	wakeAt  float64 // virtual time of awakening; 0 for the source
	stopped bool    // true once the robot's energy budget was exhausted or it crash-stopped

	// Fault-injection state, populated by Engine.installFaults; all zero on
	// fault-free runs (populate overwrites the whole record, so pooled
	// engines cannot leak fault state between jobs).
	faulty    bool       // carries a crash assignment (crash-stop or crash-recovery)
	crashAt   float64    // odometer reading at which the next crash fires
	downUntil float64    // 0 = up; +Inf = crash-stopped; else outage end time
	frnd      *rand.Rand // private fault stream (crash redraws, downtimes)
	byz       bool       // adversary-controlled
	procs     int        // live processes on this robot
}

// ID returns the robot's identifier.
func (r *Robot) ID() int { return r.id }

// InitPos returns the robot's initial position p_i — its globally unique
// identity in the paper's model.
func (r *Robot) InitPos() geom.Point { return r.initPos }

// Pos returns the robot's current position.
func (r *Robot) Pos() geom.Point { return r.pos }

// State returns Asleep or Awake.
func (r *Robot) State() State { return r.state }

// Energy returns the total distance moved so far.
func (r *Robot) Energy() float64 { return r.energy }

// Budget returns the robot's energy budget (+Inf when unconstrained).
func (r *Robot) Budget() float64 { return r.budget }

// Speed returns the robot's travel speed: moving distance δ takes time
// δ/Speed. Exactly 1 for every robot of a homogeneous engine.
func (r *Robot) Speed() float64 { return r.speed }

// WakeTime returns the virtual time at which the robot was awakened. Zero for
// the source and for robots still asleep (check State to distinguish).
func (r *Robot) WakeTime() float64 { return r.wakeAt }

// Halted reports whether the robot is permanently down: its energy budget
// was exhausted or an injected crash-stop fired. Repair code uses it to
// exclude dead robots from rescue duty.
func (r *Robot) Halted() bool { return r.stopped }

// remaining returns the budget left, +Inf when unconstrained.
func (r *Robot) remaining() float64 {
	if math.IsInf(r.budget, 1) {
		return math.Inf(1)
	}
	return r.budget - r.energy
}
