package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"freezetag/internal/geom"
)

// Property: total energy equals the sum of all move distances, and per-robot
// energy equals each robot's own path length, under random interleaved
// programs.
func TestEnergyConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
		sleepers := make([]geom.Point, n)
		for i := range sleepers {
			sleepers[i] = geom.Origin // co-located for instant wake
		}
		e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
		expect := make([]float64, n+1)
		// Pre-generate random walks per robot so expectations are exact.
		walks := make([][]geom.Point, n+1)
		for r := 0; r <= n; r++ {
			cur := geom.Origin
			steps := 1 + rng.Intn(6)
			for s := 0; s < steps; s++ {
				next := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
				expect[r] += cur.Dist(next)
				cur = next
				walks[r] = append(walks[r], next)
			}
		}
		e.Spawn(SourceID, func(p *Proc) {
			for i := 1; i <= n; i++ {
				i := i
				p.Wake(i, func(q *Proc) {
					if err := q.MovePath(walks[q.ID()]); err != nil {
						t.Errorf("walk: %v", err)
					}
				})
			}
			if err := p.MovePath(walks[0]); err != nil {
				t.Errorf("walk: %v", err)
			}
		})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for r := 0; r <= n; r++ {
			want += expect[r]
			if math.Abs(res.EnergyByRobot[r]-expect[r]) > 1e-9 {
				t.Fatalf("trial %d robot %d: energy %v, want %v",
					trial, r, res.EnergyByRobot[r], expect[r])
			}
		}
		if math.Abs(res.TotalEnergy-want) > 1e-6 {
			t.Fatalf("trial %d: total %v, want %v", trial, res.TotalEnergy, want)
		}
	}
}

// Property: makespan never exceeds duration, and wake times are
// non-decreasing in the order robots were woken.
func TestMakespanWithinDuration(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(8)
		sleepers := make([]geom.Point, n)
		for i := range sleepers {
			sleepers[i] = geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		}
		e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
		e.Spawn(SourceID, func(p *Proc) {
			// Chain wake-up in id order, then wander a bit afterwards.
			for i := 1; i <= n; i++ {
				if err := p.MoveTo(sleepers[i-1]); err != nil {
					t.Errorf("move: %v", err)
					return
				}
				p.Wake(i, nil)
			}
			if err := p.MoveTo(geom.Origin); err != nil {
				t.Errorf("move: %v", err)
			}
		})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAwake {
			t.Fatal("chain wake incomplete")
		}
		if res.Makespan > res.Duration+1e-12 {
			t.Fatalf("makespan %v > duration %v", res.Makespan, res.Duration)
		}
		prev := 0.0
		for i := 1; i <= n; i++ {
			w := e.Robot(i).WakeTime()
			if w < prev-1e-12 {
				t.Fatalf("wake times not monotone: %v after %v", w, prev)
			}
			prev = w
		}
	}
}

// Property: a robot's wake time is at least its distance from the source
// (information cannot travel faster than the robots).
func TestWakeTimeDistanceFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		sleepers := make([]geom.Point, n)
		for i := range sleepers {
			sleepers[i] = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
		}
		e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
		e.Spawn(SourceID, func(p *Proc) {
			for i := 1; i <= n; i++ {
				if err := p.MoveTo(sleepers[i-1]); err != nil {
					t.Errorf("move: %v", err)
					return
				}
				p.Wake(i, nil)
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			r := e.Robot(i)
			if r.WakeTime() < r.InitPos().Norm()-1e-9 {
				t.Fatalf("robot %d woke at %v, below distance floor %v",
					i, r.WakeTime(), r.InitPos().Norm())
			}
		}
	}
}

// Property: Look results are exactly the ball-membership predicate, in
// ascending id order.
func TestLookMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		sleepers := make([]geom.Point, n)
		for i := range sleepers {
			sleepers[i] = geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		}
		at := geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
		e := NewEngine(Config{Source: at, Sleepers: sleepers})
		e.Spawn(SourceID, func(p *Proc) {
			var want []int
			for id := 1; id <= n; id++ {
				if e.Robot(id).InitPos().Within(at, 1) {
					want = append(want, id)
				}
			}
			if got := p.Look(); !slices.Equal(got, want) {
				t.Errorf("trial %d: Look = %v, want %v", trial, got, want)
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: Look stays exactly the ascending ids of the robots still asleep
// within distance 1 while the swarm changes around it, under every metric
// family. The source stops beside and on random robots and, every fourth
// step, far outside the swarm; it wakes the sleeping ones and escorts the
// passive ones away as its team; every third woken robot wanders off and
// stops beside others, Looking at every stop. The source then wakes every
// robot still asleep and keeps Looking, beside robots and far away, after
// the last wake. The reference is a brute-force scan of Robot(id) at every
// stop. Under a wake-drop plan a robot whose wake was dropped stays asleep,
// and the Look right after the drop still reports it. Every Look, the ones
// after the last wake included, is counted in Result.Looks and traced as a
// look event.
func TestLookMatchesPredicateUnderWakesAndMoves(t *testing.T) {
	lp3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		m      geom.Metric
		faults *FaultPlan
	}{
		{"l2", geom.L2, nil},
		{"l1", geom.L1, nil},
		{"linf", geom.LInf, nil},
		{"lp3", lp3, nil},
		{"l2-wake-drop", geom.L2, &FaultPlan{Kind: FaultWakeDrop, Seed: 5, Rate: 0.5}},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const n = 60
			rng := rand.New(rand.NewSource(int64(67 + ci)))
			sleepers := make([]geom.Point, n)
			for i := range sleepers {
				sleepers[i] = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
				if i%10 == 9 {
					sleepers[i] = sleepers[i-1] // a coincident pair
				}
			}
			looks, tail, traced := 0, 0, 0
			e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers, Metric: c.m, Faults: c.faults,
				Trace: func(ev Event) {
					if ev.Kind == "look" {
						traced++
					}
				}})
			check := func(p *Proc) []int {
				var want []int
				for id := 1; id <= n; id++ {
					r := e.Robot(id)
					if r.State() == Asleep && geom.WithinIn(c.m, r.InitPos(), p.Self().Pos(), 1) {
						want = append(want, id)
					}
				}
				if e.AsleepCount() == 0 {
					tail++
				}
				looks++
				got := p.Look()
				if !slices.Equal(got, want) {
					t.Errorf("robot %d at %v, t=%g: Look = %v, want %v", p.ID(), p.Self().Pos(), p.Now(), got, want)
				}
				return got
			}
			// beside returns a point at distance up to 1.2 from robot id's
			// start, inside its Look ball or just outside it.
			beside := func(id int) geom.Point {
				a, d := rng.Float64()*2*math.Pi, rng.Float64()*1.2
				return e.Robot(id).InitPos().Add(geom.Pt(d*math.Cos(a), d*math.Sin(a)))
			}
			// far returns a point 20 to 40 from the origin, well outside the
			// swarm's box, in any direction.
			far := func() geom.Point {
				a, d := rng.Float64()*2*math.Pi, 20+rng.Float64()*20
				return geom.Pt(d*math.Cos(a), d*math.Sin(a))
			}
			wander := func(q *Proc) {
				for range 5 {
					if err := q.MoveTo(beside(1 + rng.Intn(n))); err != nil {
						t.Errorf("robot %d: %v", q.ID(), err)
						return
					}
					check(q)
				}
			}
			drops := 0
			e.Spawn(SourceID, func(p *Proc) {
				var team []int
				visit := func(at geom.Point) []int {
					if err := p.Escort(team, at); err != nil {
						t.Errorf("escort: %v", err)
					}
					return check(p)
				}
				wake := func(id int, h Handler) {
					woke := p.TryWake(id, h)
					seen := check(p)
					switch {
					case !woke:
						drops++
						if !slices.Contains(seen, id) {
							t.Errorf("t=%g: robot %d's wake was dropped, and Look %v misses it", p.Now(), id, seen)
						}
					case h == nil:
						team = append(team, id)
					}
				}
				for step := range 40 {
					id := 1 + rng.Intn(n)
					if step%4 == 0 {
						visit(far())
					}
					visit(beside(id))
					visit(e.Robot(id).InitPos())
					if e.Robot(id).State() != Asleep {
						continue
					}
					var h Handler
					if step%3 == 0 {
						h = HandlerFunc(wander)
					}
					wake(id, h)
				}
				for id := 1; id <= n; id++ {
					for e.Robot(id).State() == Asleep {
						visit(e.Robot(id).InitPos())
						wake(id, nil)
					}
				}
				for range 10 {
					visit(beside(1 + rng.Intn(n)))
					visit(far())
				}
			})
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllAwake || tail < 20 {
				t.Fatalf("all awake %v, %d Looks after the last wake: the run exercised too little", res.AllAwake, tail)
			}
			if res.Looks != int64(looks) || traced != looks {
				t.Fatalf("%d Looks made, Result.Looks = %d, %d look events traced", looks, res.Looks, traced)
			}
			if c.faults != nil && drops == 0 {
				t.Fatal("no wake was dropped")
			}
		})
	}
}

func TestEscortChainPreservesColocation(t *testing.T) {
	sleepers := []geom.Point{geom.Origin, geom.Origin, geom.Origin}
	e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
	e.Spawn(SourceID, func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Wake(i, nil)
		}
		members := []int{1, 2, 3}
		waypoints := []geom.Point{geom.Pt(3, 0), geom.Pt(3, 4), geom.Pt(-1, 2)}
		for _, wp := range waypoints {
			if err := p.Escort(members, wp); err != nil {
				t.Fatalf("escort: %v", err)
			}
			for _, id := range members {
				if !p.Engine().Robot(id).Pos().Eq(wp) {
					t.Fatalf("member %d at %v, want %v", id, p.Engine().Robot(id).Pos(), wp)
				}
			}
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierManyParticipants(t *testing.T) {
	n := 12
	sleepers := make([]geom.Point, n)
	for i := range sleepers {
		sleepers[i] = geom.Origin
	}
	e := NewEngine(Config{Source: geom.Origin, Sleepers: sleepers})
	var releases []float64
	big := &Barrier{Need: n + 1}
	e.Spawn(SourceID, func(p *Proc) {
		for i := 1; i <= n; i++ {
			i := i
			p.Wake(i, func(q *Proc) {
				q.Wait(float64(i)) // staggered arrivals 1..n
				q.Await(big, "big")
				releases = append(releases, q.Now())
			})
		}
		p.Await(big, "big")
		releases = append(releases, p.Now())
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != n+1 {
		t.Fatalf("%d releases, want %d", len(releases), n+1)
	}
	for _, r := range releases {
		if math.Abs(r-float64(n)) > 1e-9 {
			t.Fatalf("release at %v, want %d (last arrival)", r, n)
		}
	}
}
