package sim

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
	"freezetag/internal/spatial"
)

// Profile is one sleeping robot's capability profile: a travel speed
// (distance δ takes time δ/Speed) and a private energy capacity (≤ 0 means
// "inherit Config.Budget"). It mirrors instance.Profile without importing
// the instance layer.
type Profile struct {
	Speed    float64
	Capacity float64
}

// Config parameterizes an Engine.
type Config struct {
	// Source is the initial position of the always-awake source robot.
	Source geom.Point
	// Sleepers are the initial positions of the n sleeping robots; robot i+1
	// sleeps at Sleepers[i].
	Sleepers []geom.Point
	// Budget is the per-robot energy budget B. Zero or negative means
	// unconstrained (stored as +Inf).
	Budget float64
	// Profiles, when non-empty, gives robot i+1 the capability profile
	// Profiles[i] (one entry per sleeper; the source is always unit-speed
	// and keeps Budget). Empty means the homogeneous unit-speed model.
	Profiles []Profile
	// Metric is the distance the whole model is measured in: travel times,
	// energy, and the radius-1 Look. Nil means Euclidean (ℓ2), the paper's
	// setting.
	Metric geom.Metric
	// Trace, when non-nil, receives every simulation event in order.
	Trace func(Event)
	// Faults, when non-nil, injects the plan's deterministic faults into the
	// run and switches the engine's roster contracts from panic-on-bug to
	// tolerate-and-count (see FaultPlan). Nil keeps the fault-free model
	// bit-identical to the pre-fault engine.
	Faults *FaultPlan
}

// Event is a trace record emitted by the engine.
type Event struct {
	T     float64
	Robot int
	// Kind is "move", "look", "wake", "spawn", "barrier", "done", "halt", or
	// — under fault injection — "fault-crash", "fault-recover",
	// "fault-wakedrop", "fault-wakedup", "fault-byz", "fault-roster",
	// "repair".
	Kind  string
	Pos   geom.Point
	Extra string
}

// Engine is the deterministic discrete-event simulator. Create one with
// NewEngine, install the source program with Spawn, then call Run.
//
// Engine is not safe for concurrent use from outside. Each robot process is
// a coroutine (iter.Pull) that the event loop resumes one step at a time on
// its own goroutine, so at most one process executes at any instant.
type Engine struct {
	now      float64
	seq      int64
	metric   geom.Metric
	robots   []*Robot
	block    []Robot // backing array of robots, reused across Reset
	minSpeed float64 // slowest robot speed (source included); 1 when homogeneous
	hetero   bool    // Config.Profiles was non-empty

	// grid indexes the sleeping robots by id at their start positions. A
	// sleeping robot never moves, and a woken robot's entry stays, so
	// neither a move nor a wake touches the index: Look filters by state.
	grid *spatial.Grid

	pq eventHeap
	// parked holds every process currently parked indefinitely (barriers,
	// wait-groups); used for deadlock detection and shutdown. The barriers
	// themselves belong to the algorithm code that meets at them.
	parked map[*Proc]struct{}

	// queryBuf backs every Look: the grid query, filtered down to the
	// sleeping robots, is what Look returns (see Proc.Look). It grows to the
	// largest grid query of the run and is refilled by the next Look.
	queryBuf []int

	trace func(Event)

	// Event-loop probe counters: plain (non-atomic) int64s incremented on
	// the single-threaded event loop, so counting is free of contention and
	// the totals are as deterministic as the schedule itself. They surface
	// in Result for the serving tier's metrics; they are never serialized
	// into response bodies.
	steps int64 // event dispatches (one scheduled process resume each)
	looks int64 // Look snapshots taken
	moves int64 // completed robot moves (team members count individually)

	asleepCount int
	lastWake    float64
	violations  []string
	running     bool

	// procFree holds finished processes, their coroutines suspended until
	// SpawnH hands them a body. pooled marks an engine owned by a worker
	// arena (NewEngineIn), which Reset rewinds and whose idle coroutines
	// last until Close; any other engine stops them when RunCtx returns.
	// panicked marks an engine whose run a process panic ended: its state
	// is unknown, so NewEngineIn replaces it.
	pooled   bool
	panicked bool
	procFree []*Proc
	// energyBuf backs Result.EnergyByRobot and is invalidated by Reset,
	// which is safe because nothing built from a pooled run may outlive its
	// job.
	energyBuf []float64
	// scratch holds per-algorithm reusable state keyed by algorithm name
	// (see ScratchOf); values implementing RunScratch rewind on Reset.
	scratch map[string]any

	// Fault-injection state (nil/zero on fault-free runs — see faults.go).
	faults   *FaultPlan
	wakeRand *rand.Rand // sequential wake-fault stream
	fstats   FaultStats
	// wgs registers every WaitGroup built on this engine so ReleaseStalled
	// can void them; pidSeq numbers processes in spawn order so stalled
	// releases have a deterministic order.
	wgs    []*WaitGroup
	pidSeq int64
}

// RunScratch is implemented by scratch values that must rewind between runs;
// Engine.Reset invokes it on every stashed scratch value that has it.
type RunScratch interface{ ResetRun() }

// ScratchOf returns the engine's scratch value under key, building it with mk
// on first use. Algorithm installers use it to keep their round bookkeeping
// (registries, reusable buffers, memoized closures) alive across the runs of
// a pooled engine. A key reused at a different type panics.
func ScratchOf[T any](e *Engine, key string, mk func() T) T {
	if e.scratch == nil {
		e.scratch = make(map[string]any)
	}
	if v, ok := e.scratch[key]; ok {
		return v.(T)
	}
	v := mk()
	e.scratch[key] = v
	return v
}

// parkMsg is what a process yields to the event loop when it parks.
type parkMsg struct {
	kind parkKind
	at   float64
}

type parkKind int

const (
	parkYield parkKind = iota + 1 // resume at time `at`
	parkWait                      // parked indefinitely (barrier)
	parkDone                      // process finished
)

type schedItem struct {
	t   float64
	seq int64
	p   *Proc
}

// eventHeap is a typed binary min-heap over (time, sequence). The
// hand-rolled sift loops perform the same comparisons container/heap would,
// without boxing every schedItem through an interface on push and pop —
// the event loop runs one push and one pop per simulation step, which made
// that boxing one of the simulator's top allocation sites.
type eventHeap []schedItem

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(it schedItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() schedItem {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.less(l, smallest) {
			smallest = l
		}
		if r < n && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// NewEngine builds an engine over the given instance. Robot 0 is the awake
// source; robots 1..n start asleep at Config.Sleepers.
//
// Everything sized by the robot count — the robot records themselves, the
// spatial index's item lists, the event heap — is allocated up front in one
// block each, and the index itself on the first Look, so a simulation's
// steady state allocates only per-process resume machinery and whatever
// the algorithm itself builds.
func NewEngine(cfg Config) *Engine { return newEngine(cfg, false) }

func newEngine(cfg Config, pooled bool) *Engine {
	n := len(cfg.Sleepers)
	metric := geom.MetricOrL2(cfg.Metric)
	e := &Engine{
		metric: metric,
		grid:   spatial.NewGridInCap(metric, 1, n),
		pq:     make(eventHeap, 0, n+2),
		parked: make(map[*Proc]struct{}),
		trace:  cfg.Trace,
		pooled: pooled,
	}
	e.populate(cfg)
	return e
}

// NewEngineIn returns an engine backed by the worker arena a: the first call
// builds a pooled engine and stashes it; later calls reset that engine
// against the new configuration, so the whole simulation substrate — robot
// block, spatial grid, event heap, process coroutines, algorithm scratch —
// is reused across the jobs of one worker. An engine whose last run
// returned ErrProcessPanic is replaced by a fresh one. A nil arena falls
// back to a fresh one-shot NewEngine.
func NewEngineIn(a *arena.Arena, cfg Config) *Engine {
	if a == nil {
		return NewEngine(cfg)
	}
	slot := arena.Of(a, "sim.engine", func() *engineSlot { return &engineSlot{} })
	if slot.e == nil || slot.e.panicked {
		slot.e = newEngine(cfg, true)
	} else {
		slot.e.Reset(cfg)
	}
	return slot.e
}

// engineSlot is the arena stash entry for a pooled engine; the indirection
// exists so arena.Close can stop the engine's idle process coroutines.
type engineSlot struct{ e *Engine }

func (s *engineSlot) Close() {
	if s.e != nil {
		s.e.Close()
		s.e = nil
	}
}

// populate loads cfg's robot population into an otherwise-clean engine. It
// is the shared tail of newEngine and Reset; Reset reuses the robot block
// and grid storage, so on a same-shape instance it allocates nothing.
func (e *Engine) populate(cfg Config) {
	budget := cfg.Budget
	if budget <= 0 {
		budget = math.Inf(1)
	}
	n := len(cfg.Sleepers)
	if len(cfg.Profiles) != 0 && len(cfg.Profiles) != n {
		panic(fmt.Sprintf("sim: %d profiles for %d sleepers", len(cfg.Profiles), n))
	}
	e.minSpeed = 1
	e.hetero = len(cfg.Profiles) > 0
	if cap(e.block) < n+1 {
		e.block = make([]Robot, n+1)
		e.robots = make([]*Robot, n+1)
	} else {
		e.block = e.block[:n+1]
		e.robots = e.robots[:n+1]
	}
	block := e.block
	block[0] = Robot{id: SourceID, initPos: cfg.Source, pos: cfg.Source, state: Awake, budget: budget, speed: 1}
	e.robots[0] = &block[0]
	for i, p := range cfg.Sleepers {
		speed, b := 1.0, budget
		if len(cfg.Profiles) > 0 {
			pr := cfg.Profiles[i]
			if !(pr.Speed > 0) || math.IsInf(pr.Speed, 1) {
				panic(fmt.Sprintf("sim: robot %d speed must be finite and > 0, got %g", i+1, pr.Speed))
			}
			speed = pr.Speed
			if pr.Capacity > 0 {
				b = pr.Capacity
			}
		}
		block[i+1] = Robot{id: i + 1, initPos: p, pos: p, state: Asleep, budget: b, speed: speed}
		e.robots[i+1] = &block[i+1]
		e.grid.Insert(i+1, p)
		if speed < e.minSpeed {
			e.minSpeed = speed
		}
	}
	e.asleepCount = n
	e.faults = cfg.Faults
	if cfg.Faults != nil {
		e.installFaults(cfg.Faults)
	}
}

// Reset rewinds a pooled engine for a fresh run over cfg, reusing every
// piece of run-sized storage: the robot block, the spatial grid, the event
// heap, the Look buffer, and all algorithm scratch (values implementing
// RunScratch are rewound). The idle process coroutines survive. Every slice
// handed out by the previous run (Look results, EnergyByRobot) is
// invalidated.
func (e *Engine) Reset(cfg Config) {
	if !e.pooled {
		panic("sim: Reset on a non-pooled engine")
	}
	metric := geom.MetricOrL2(cfg.Metric)
	e.now = 0
	e.seq = 0
	e.metric = metric
	e.grid.Reset(metric)
	e.pq = e.pq[:0]
	clear(e.parked)
	e.trace = cfg.Trace
	e.steps, e.looks, e.moves = 0, 0, 0
	e.lastWake = 0
	e.violations = e.violations[:0]
	e.running = false
	e.faults = nil
	e.wakeRand = nil
	e.fstats = FaultStats{}
	e.wgs = e.wgs[:0]
	e.pidSeq = 0
	for _, v := range e.scratch {
		if r, ok := v.(RunScratch); ok {
			r.ResetRun()
		}
	}
	e.populate(cfg)
}

// Close stops the engine's idle process coroutines, each finished before
// Close returns. RunCtx calls it on an engine no arena owns; arena teardown
// calls it on a pooled engine via the stashed engineSlot. The engine must
// not be run again after Close.
func (e *Engine) Close() {
	for _, p := range e.procFree {
		p.stop()
	}
	e.procFree = e.procFree[:0]
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Metric returns the distance the run is measured in. Algorithm code must
// compute all travel and visibility distances through it.
func (e *Engine) Metric() geom.Metric { return e.metric }

// MinSpeed returns the slowest robot speed in the swarm (source included).
// Worst-case travel-time bounds calibrated for unit speed stay valid when
// divided by it; it is exactly 1 for a homogeneous engine, so that division
// is then the IEEE-754 identity.
func (e *Engine) MinSpeed() float64 { return e.minSpeed }

// Heterogeneous reports whether the engine was built with per-robot
// profiles. Algorithm code uses it to keep the homogeneous fast paths
// byte-identical to the pre-profile model.
func (e *Engine) Heterogeneous() bool { return e.hetero }

// dist is the engine-level distance between two points under the run metric.
func (e *Engine) dist(p, q geom.Point) float64 { return e.metric.Dist(p, q) }

// Robot returns the robot with the given id; it panics on unknown ids, which
// are always a programming error in algorithm code.
func (e *Engine) Robot(id int) *Robot {
	if id < 0 || id >= len(e.robots) {
		panic(fmt.Sprintf("sim: unknown robot id %d", id))
	}
	return e.robots[id]
}

// NumRobots returns n+1 (source included).
func (e *Engine) NumRobots() int { return len(e.robots) }

// AsleepCount returns the number of robots still asleep.
func (e *Engine) AsleepCount() int { return e.asleepCount }

// Handler is the interface form of a process body. Converting a function to
// a Handler via handlerFunc is allocation-free (func values are
// pointer-shaped), and algorithm code with a hot wake path can implement
// RunProc on a pooled struct to avoid capturing closures per wake.
type Handler interface{ RunProc(*Proc) }

// HandlerFunc adapts a plain function to Handler.
type HandlerFunc func(*Proc)

// RunProc implements Handler.
func (f HandlerFunc) RunProc(p *Proc) { f(p) }

// Spawn schedules fn to run as a new process on the given awake robot at the
// current virtual time. It is the entry point for the source program and for
// handlers attached to newly awakened robots.
func (e *Engine) Spawn(id int, fn func(*Proc)) { e.SpawnH(id, HandlerFunc(fn)) }

// SpawnH is Spawn taking a Handler. The process record and its coroutine
// come from the free list when one is idle, so spawning after another
// process has finished allocates nothing.
func (e *Engine) SpawnH(id int, h Handler) {
	r := e.Robot(id)
	if r.state != Awake || (e.faults != nil && r.stopped) {
		if e.faults != nil {
			// Under injection the roster can go stale between a Look and the
			// Spawn it motivates (the robot crashed, or its wake was dropped):
			// absorb the spawn as a counted skip instead of panicking.
			e.fstats.RosterSkips++
			e.emit(Event{T: e.now, Robot: id, Kind: "fault-roster", Pos: r.pos, Extra: "spawn"})
			return
		}
		panic(fmt.Sprintf("sim: Spawn on non-awake robot %d", id))
	}
	if r.byz && h != nil {
		// Adversary takeover: the robot's program is replaced by the fault
		// plan's wander program. The substitution happens at spawn so every
		// path that hands a Byzantine robot work — wake handlers, repair
		// rescues — is covered.
		e.fstats.ByzTakeovers++
		e.emit(Event{T: e.now, Robot: id, Kind: "fault-byz", Pos: r.pos})
		h = byzHandler{plan: e.faults}
	}
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree = e.procFree[:n-1]
		p.r = r
		p.fn = h
	} else {
		p = &Proc{eng: e, r: r, fn: h}
		p.next, p.stop = iter.Pull(p.loop)
	}
	p.pid = e.pidSeq
	e.pidSeq++
	r.procs++
	e.push(p, e.now)
	e.emit(Event{T: e.now, Robot: id, Kind: "spawn", Pos: r.pos})
}

// Tracing reports whether the engine has a trace sink installed. Algorithm
// code may use it to skip work whose only observable effect is trace events.
func (e *Engine) Tracing() bool { return e.trace != nil }

func (e *Engine) push(p *Proc, t float64) {
	e.seq++
	e.pq.push(schedItem{t: t, seq: e.seq, p: p})
}

// unpark takes parked process p off the parked set and queues it at the
// current time. Only the three release paths (the last arrival at a
// barrier, the last Done of a wait group, and ReleaseStalled) queue a
// parked process; every other push queues a new one or one that has just
// run, so push leaves the set alone.
func (e *Engine) unpark(p *Proc) {
	delete(e.parked, p)
	e.push(p, e.now)
}

func (e *Engine) emit(ev Event) {
	if e.trace != nil {
		e.trace(ev)
	}
}

// Result summarizes a completed run.
type Result struct {
	// Makespan is the time the last robot was awakened. If some robots were
	// never awakened it is the time of the last event and AllAwake is false.
	Makespan float64
	// Duration is the virtual time at which all processes terminated
	// (includes post-wake-up movement and synchronization).
	Duration float64
	AllAwake bool
	Awakened int
	// MaxEnergy is the largest per-robot energy spent; EnergyByRobot lists
	// all of them indexed by robot id.
	MaxEnergy     float64
	TotalEnergy   float64
	EnergyByRobot []float64
	// Violations lists budget violations (robot halted mid-algorithm).
	Violations []string
	// Steps, Looks, and Moves are the engine's event-loop probe counters:
	// event dispatches, Look snapshots, and completed robot moves. They are
	// deterministic (the event loop is single-threaded and schedule-
	// independent) and exist for observability — the serving tier feeds
	// them into its metrics registry. They MUST NOT be serialized into
	// cacheable response bodies: the wire format is byte-locked by golden
	// fixtures that predate them.
	Steps int64
	Looks int64
	Moves int64
	// Faults counts the run's injected faults and repair actions; all zero
	// on a fault-free run. Like the probe counters it is deterministic and
	// must never be serialized into the byte-locked fault-free wire format.
	Faults FaultStats
}

// ErrDeadlock is returned by Run when processes remain parked on a barrier
// that can never be released.
var ErrDeadlock = errors.New("sim: deadlock — processes parked on unreleased barriers")

// ErrCancelled is returned (wrapping the context's error) by RunCtx when the
// context is cancelled before the simulation completes. The partial Result is
// still returned, describing the state at the instant the run was abandoned.
var ErrCancelled = errors.New("sim: run cancelled")

// ErrProcessPanic is wrapped by the error RunCtx returns when a robot
// process panics: the run is abandoned, and the error is a *PanicError.
var ErrProcessPanic = errors.New("sim: process panicked")

// PanicError is the error RunCtx returns when a robot process panics. Its
// text is one line naming the robot and the panic value, so the same panic
// reads the same on every run and every server; the stack of the frame
// that raised it is kept apart, for logs.
type PanicError struct {
	Robot int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("%v on robot %d: %v", ErrProcessPanic, e.Robot, e.Value)
}

// Unwrap returns ErrProcessPanic.
func (e *PanicError) Unwrap() error { return ErrProcessPanic }

// Run executes the simulation to completion and returns the summary. It is
// an error to call Run twice or before any process was spawned.
func (e *Engine) Run() (Result, error) { return e.RunCtx(context.Background()) }

// RunCtx is Run with cooperative cancellation: the context is polled between
// event dispatches (no robot process is ever interrupted mid-step). However
// the run ends — completed, cancelled, deadlocked, or abandoned because a
// process panicked — every live process is unwound before RunCtx returns,
// and so are the idle coroutines of an engine no arena owns, so no
// goroutine outlives the call. Cancellation is the mechanism the portfolio
// racing engine uses to stop losing racers early.
func (e *Engine) RunCtx(ctx context.Context) (Result, error) {
	if e.running {
		return Result{}, errors.New("sim: Run called twice")
	}
	e.running = true
	err := e.dispatch(ctx)
	if err == nil && len(e.parked) > 0 {
		err = ErrDeadlock
	}
	// Each stop returns once its process has unwound.
	for len(e.pq) > 0 {
		e.pq.pop().p.stop()
	}
	for p := range e.parked {
		p.stop()
	}
	clear(e.parked)
	if !e.pooled || e.panicked {
		e.Close()
	}
	return e.result(), err
}

// dispatch is the event loop. Each step resumes the earliest scheduled
// process until it parks again; the loop ends when no process is scheduled
// or ctx is cancelled. A process's panic, wrapped by runOne in a
// *PanicError and re-raised here by next, ends it too, as its error, and
// marks the engine panicked; any other panic is the engine's own and
// propagates.
func (e *Engine) dispatch(ctx context.Context) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			perr, ok := rec.(*PanicError)
			if !ok {
				panic(rec)
			}
			e.panicked, err = true, perr
		}
	}()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for len(e.pq) > 0 {
		if done != nil {
			select {
			case <-done:
				return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
			default:
			}
		}
		it := e.pq.pop()
		e.steps++
		if it.t < e.now-geom.Eps {
			return fmt.Errorf("sim: time went backwards: %v -> %v", e.now, it.t)
		}
		if it.t > e.now {
			e.now = it.t
		}
		msg, _ := it.p.next()
		switch msg.kind {
		case parkYield:
			e.push(it.p, msg.at)
		case parkWait:
			// Parked indefinitely; the releasing process re-enqueues it.
			e.parked[it.p] = struct{}{}
		case parkDone:
			it.p.r.procs--
			e.emit(Event{T: e.now, Robot: it.p.r.id, Kind: "done", Pos: it.p.r.pos})
			// The coroutine waits for its next body from SpawnH.
			e.procFree = append(e.procFree, it.p)
		}
	}
	return nil
}

func (e *Engine) result() Result {
	if cap(e.energyBuf) < len(e.robots) {
		e.energyBuf = make([]float64, len(e.robots))
	}
	res := Result{
		Makespan:      e.lastWake,
		Duration:      e.now,
		AllAwake:      e.asleepCount == 0,
		Awakened:      len(e.robots) - 1 - e.asleepCount,
		EnergyByRobot: e.energyBuf[:len(e.robots)],
		Violations:    append([]string(nil), e.violations...),
		Steps:         e.steps,
		Looks:         e.looks,
		Moves:         e.moves,
		Faults:        e.fstats,
	}
	if !res.AllAwake {
		res.Makespan = e.now
	}
	for i, r := range e.robots {
		res.EnergyByRobot[i] = r.energy
		res.TotalEnergy += r.energy
		if r.energy > res.MaxEnergy {
			res.MaxEnergy = r.energy
		}
	}
	return res
}

// wake flips robot id to Awake at the current time. Caller guarantees
// co-location (checked by Proc.Wake).
func (e *Engine) wake(id int) {
	r := e.Robot(id)
	if r.state != Asleep {
		panic(fmt.Sprintf("sim: waking non-asleep robot %d", id))
	}
	r.state = Awake
	r.wakeAt = e.now
	e.asleepCount--
	if e.now > e.lastWake {
		e.lastWake = e.now
	}
	e.emit(Event{T: e.now, Robot: id, Kind: "wake", Pos: r.pos})
}

// moveRobot finalizes a completed move: position and energy. Only awake
// robots move, and the grid indexes sleepers only, so the index is left as
// it is.
func (e *Engine) moveRobot(r *Robot, dst geom.Point, dist float64) {
	e.moves++
	r.pos = dst
	r.energy += dist
	e.emit(Event{T: e.now, Robot: r.id, Kind: "move", Pos: dst})
}
