package sim

import (
	"errors"
	"math"
	"slices"
	"testing"

	"freezetag/internal/geom"
)

func TestMoveTiming(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	var arrive float64
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(3, 4)); err != nil {
			t.Errorf("MoveTo: %v", err)
		}
		arrive = p.Now()
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(arrive-5) > 1e-9 {
		t.Errorf("arrival time = %v, want 5 (unit speed)", arrive)
	}
	if math.Abs(res.EnergyByRobot[0]-5) > 1e-9 {
		t.Errorf("energy = %v, want 5", res.EnergyByRobot[0])
	}
	if math.Abs(res.Duration-5) > 1e-9 {
		t.Errorf("duration = %v, want 5", res.Duration)
	}
}

func TestLookRadiusOne(t *testing.T) {
	sleepers := []geom.Point{geom.Pt(0.5, 0), geom.Pt(1, 0), geom.Pt(1.5, 0)}
	e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
	var ids []int
	e.Spawn(SourceID, func(p *Proc) { ids = slices.Clone(p.Look()) })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{1, 2}) {
		t.Fatalf("Look = %v, want [1 2] (radius-1 visibility)", ids)
	}
	for _, id := range ids {
		if got := e.Robot(id).InitPos(); got != sleepers[id-1] {
			t.Errorf("robot %d starts at %v, want %v", id, got, sleepers[id-1])
		}
	}
}

func TestWakeRequiresColocation(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(2, 0)}})
	e.Spawn(SourceID, func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Wake at distance should panic")
			}
		}()
		p.Wake(1, nil)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWakeSpawnsHandler(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(1, 0), geom.Pt(2, 0)}})
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(1, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(1, func(q *Proc) {
			if err := q.MoveTo(geom.Pt(2, 0)); err != nil {
				t.Errorf("handler move: %v", err)
			}
			q.Wake(2, nil)
		})
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("all robots should be awake")
	}
	if math.Abs(res.Makespan-2) > 1e-9 {
		t.Errorf("makespan = %v, want 2 (chain 0→1→2)", res.Makespan)
	}
	if w := e.Robot(2).WakeTime(); math.Abs(w-2) > 1e-9 {
		t.Errorf("robot 2 wake time = %v", w)
	}
}

func TestBudgetHaltsRobot(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Budget: 3})
	var gotErr error
	e.Spawn(SourceID, func(p *Proc) {
		gotErr = p.MoveTo(geom.Pt(10, 0))
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var be *ErrBudget
	if !errors.As(gotErr, &be) {
		t.Fatalf("want *ErrBudget, got %v", gotErr)
	}
	if !e.Robot(0).Pos().Eq(geom.Pt(3, 0)) {
		t.Errorf("halted position = %v, want (3,0)", e.Robot(0).Pos())
	}
	if len(res.Violations) != 1 {
		t.Errorf("violations = %v", res.Violations)
	}
	if math.Abs(res.MaxEnergy-3) > 1e-9 {
		t.Errorf("MaxEnergy = %v", res.MaxEnergy)
	}
}

// A robot that has stopped stays stopped: asked to move again, it returns
// the error it stopped with, and its halt or crash is counted and traced
// once.
func TestStoppedRobotStopsOnce(t *testing.T) {
	countKind := func(events []Event, kind string) int {
		n := 0
		for _, ev := range events {
			if ev.Kind == kind {
				n++
			}
		}
		return n
	}

	var events []Event
	e := NewEngine(Config{Source: geom.Origin, Budget: 3, Trace: func(ev Event) { events = append(events, ev) }})
	var errs [2]error
	e.Spawn(SourceID, func(p *Proc) {
		errs[0] = p.MoveTo(geom.Pt(10, 0))
		errs[1] = p.MoveTo(geom.Pt(0, 10))
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		var be *ErrBudget
		if !errors.As(err, &be) {
			t.Errorf("budget move %d: want *ErrBudget, got %v", i, err)
		}
	}
	if len(res.Violations) != 1 || countKind(events, "halt") != 1 {
		t.Errorf("budget halt: violations %q and %d halt events, want one of each",
			res.Violations, countKind(events, "halt"))
	}
	if !e.Robot(SourceID).Pos().Eq(geom.Pt(3, 0)) {
		t.Errorf("halted robot at %v, want (3,0)", e.Robot(SourceID).Pos())
	}

	events = nil
	e = NewEngine(Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{geom.Origin},
		Faults:   &FaultPlan{Kind: FaultCrashStop, Seed: 1, Rate: 1, CrashDist: 1, Downtime: 1},
		Trace:    func(ev Event) { events = append(events, ev) },
	})
	var at geom.Point
	e.Spawn(SourceID, func(p *Proc) {
		p.Wake(1, func(q *Proc) {
			errs[0] = q.MoveTo(geom.Pt(10, 0))
			at = q.Self().Pos()
			errs[1] = q.MoveTo(geom.Pt(0, 10))
		})
	})
	res, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		var ce *ErrCrashed
		if !errors.As(err, &ce) {
			t.Errorf("crash move %d: want *ErrCrashed, got %v", i, err)
		}
	}
	if res.Faults.CrashStops != 1 || countKind(events, "fault-crash") != 1 {
		t.Errorf("crash-stop: %d crash-stops and %d fault-crash events, want one of each",
			res.Faults.CrashStops, countKind(events, "fault-crash"))
	}
	if !e.Robot(1).Pos().Eq(at) {
		t.Errorf("crashed robot moved from %v to %v", at, e.Robot(1).Pos())
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	var t1, t2 float64
	e.Spawn(SourceID, func(p *Proc) {
		p.WaitUntil(7)
		t1 = p.Now()
		p.WaitUntil(3) // in the past: no-op
		t2 = p.Now()
		p.Wait(1.5)
		if math.Abs(p.Now()-8.5) > 1e-9 {
			t.Errorf("after Wait, now = %v", p.Now())
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != 7 || t2 != 7 {
		t.Errorf("t1=%v t2=%v", t1, t2)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(1, 0)}})
	var releaseA, releaseB float64
	meet := &Barrier{Need: 2}
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(1, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(1, func(q *Proc) {
			q.Wait(5) // arrives at barrier at t=6
			q.Await(meet, "meet")
			releaseB = q.Now()
		})
		p.Await(meet, "meet") // arrives at t=1
		releaseA = p.Now()
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(releaseA-6) > 1e-9 || math.Abs(releaseB-6) > 1e-9 {
		t.Errorf("barrier releases at %v / %v, want 6 / 6", releaseA, releaseB)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	e.Spawn(SourceID, func(p *Proc) {
		p.Await(&Barrier{Need: 2}, "never")
	})
	_, err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// ReleaseStalled frees every parked process in spawn order, not robot id
// order, whatever it is parked on. It empties the barrier they were parked
// at, so the next arrivals count from zero, and it zeroes the WaitGroup, so
// a late Done is absorbed.
func TestReleaseStalled(t *testing.T) {
	e := NewEngine(Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{geom.Origin, geom.Origin, geom.Origin},
		Faults:   &FaultPlan{Kind: FaultNone},
	})
	b := &Barrier{Need: 4}
	wg := e.NewWaitGroup()
	wg.Add(1)
	var released []int
	var left []float64
	meetAgain := func(q *Proc, after float64) {
		released = append(released, q.ID())
		q.Wait(after)
		q.Await(b, "again")
		left = append(left, q.Now())
	}
	e.Spawn(SourceID, func(p *Proc) {
		// Spawned as robots 3, 2, 1: two of four at b, one on wg.
		p.Wake(3, func(q *Proc) { q.Await(b, "stall"); meetAgain(q, 1) })
		p.Wake(2, func(q *Proc) { wg.Wait(q); meetAgain(q, 2) })
		p.Wake(1, func(q *Proc) { q.Await(b, "stall"); meetAgain(q, 1) })
		p.Wait(1)
		if !e.Quiescent() || e.ParkedCount() != 3 {
			t.Errorf("before release: quiescent %v, %d parked, want true, 3", e.Quiescent(), e.ParkedCount())
		}
		if n := e.ReleaseStalled(); n != 3 || e.ParkedCount() != 0 {
			t.Errorf("released %d, %d still parked, want 3, 0", n, e.ParkedCount())
		}
		wg.Done()
		if wg.Pending() != 0 {
			t.Errorf("late Done left %d pending", wg.Pending())
		}
		// Robots 3 and 1 meet b again at t = 2, robot 2 at t = 3: with the
		// stalled arrivals gone, b releases only when this one, at t = 4,
		// is its fourth.
		p.Wait(3)
		p.Await(b, "again")
		left = append(left, p.Now())
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 2, 1}; !slices.Equal(released, want) {
		t.Errorf("released in order %v, want spawn order %v", released, want)
	}
	if want := []float64{4, 4, 4, 4}; !slices.Equal(left, want) {
		t.Errorf("second meeting left at %v, want %v", left, want)
	}
}

func TestEscort(t *testing.T) {
	sleepers := []geom.Point{geom.Pt(1, 0), geom.Pt(1, 0.5)}
	e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(1, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(1, nil)
		// Member 1 must be co-located before escorting: it already is (woken
		// at its own position where the leader stands).
		if err := p.Escort([]int{1}, geom.Pt(4, 4)); err != nil {
			t.Errorf("escort: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !e.Robot(1).Pos().Eq(geom.Pt(4, 4)) {
		t.Errorf("member position = %v", e.Robot(1).Pos())
	}
	wantE := geom.Pt(1, 0).Dist(geom.Pt(4, 4))
	if math.Abs(e.Robot(1).Energy()-wantE) > 1e-9 {
		t.Errorf("member energy = %v, want %v", e.Robot(1).Energy(), wantE)
	}
	if res.AllAwake {
		t.Error("robot 2 should still be asleep")
	}
}

func TestEscortMemberBudget(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(0, 0)}, Budget: 5})
	e.Spawn(SourceID, func(p *Proc) {
		p.Wake(1, nil)
		// Drain member 1's budget by escorting back and forth.
		if err := p.Escort([]int{1}, geom.Pt(2, 0)); err != nil {
			t.Errorf("escort 1: %v", err)
		}
		if err := p.Escort([]int{1}, geom.Pt(0, 0)); err != nil {
			t.Errorf("escort 2: %v", err)
		}
		// Both have spent 4 of 5; a 2-unit move exhausts them. The leader
		// errors, the member halts.
		err := p.Escort([]int{1}, geom.Pt(2, 0))
		var be *ErrBudget
		if !errors.As(err, &be) {
			t.Errorf("want budget error, got %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxEnergy > 5+1e-9 {
		t.Errorf("MaxEnergy = %v exceeds budget", res.MaxEnergy)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sleepers := []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(0, -1)}
		e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
		e.Spawn(SourceID, func(p *Proc) {
			for _, id := range slices.Clone(p.Look()) {
				if err := p.MoveTo(e.Robot(id).InitPos()); err != nil {
					t.Errorf("move: %v", err)
				}
				p.Wake(id, func(q *Proc) {
					if err := q.MoveTo(geom.Origin); err != nil {
						t.Errorf("handler move: %v", err)
					}
				})
			}
		})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		times := make([]float64, 0, 4)
		for i := 1; i <= 4; i++ {
			times = append(times, e.Robot(i).WakeTime())
		}
		times = append(times, res.Duration, res.TotalEnergy)
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic run: %v vs %v", a, b)
		}
	}
}

func TestMakespanUnawakened(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(100, 0)}})
	e.Spawn(SourceID, func(p *Proc) { p.Wait(1) })
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AllAwake || res.Awakened != 0 {
		t.Errorf("AllAwake=%v Awakened=%d", res.AllAwake, res.Awakened)
	}
}

func TestTraceEvents(t *testing.T) {
	var kinds []string
	e := NewEngine(Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{geom.Pt(1, 0)},
		Trace:    func(ev Event) { kinds = append(kinds, ev.Kind) },
	})
	e.Spawn(SourceID, func(p *Proc) {
		p.Look()
		if err := p.MoveTo(geom.Pt(1, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(1, nil)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"spawn", "look", "move", "wake", "done"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}

func TestRunTwiceErrors(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	e.Spawn(SourceID, func(p *Proc) {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run should error")
	}
}

func TestZeroDistanceMoveFree(t *testing.T) {
	e := NewEngine(Config{Source: geom.Pt(2, 2), Budget: 0.5})
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(2, 2)); err != nil {
			t.Errorf("zero move: %v", err)
		}
		if p.Now() != 0 {
			t.Errorf("zero move advanced time to %v", p.Now())
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy != 0 {
		t.Errorf("TotalEnergy = %v", res.TotalEnergy)
	}
}

func TestMovePath(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	e.Spawn(SourceID, func(p *Proc) {
		err := p.MovePath([]geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)})
		if err != nil {
			t.Errorf("MovePath: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.TotalEnergy-3) > 1e-9 {
		t.Errorf("path energy = %v, want 3", res.TotalEnergy)
	}
}
