package sim

import (
	"errors"
	"math"
	"slices"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/rngstream"
)

// fuzzProgram is a deliberately naive greedy wake strategy: every awake
// robot repeatedly claims the nearest unclaimed sleeper, walks there, and
// tries to wake it. It exists only to drive the fault machinery — crashes
// strand claims, wake-drops waste trips, Byzantine robots never claim — so
// the fuzzer can hammer every roster path without the wakeup layer on top.
// After every move the robot Looks, and the Look must list exactly the
// robots asleep within distance 1 of where it stopped: on its claim, where
// a crash or its budget cut the move short, and once every robot is awake.
func fuzzProgram(t *testing.T, positions []geom.Point, claimed []bool) func(*Proc) {
	look := func(p *Proc) {
		e := p.Engine()
		var want []int
		for id := 1; id < e.NumRobots(); id++ {
			if r := e.Robot(id); r.State() == Asleep && geom.WithinIn(e.Metric(), r.InitPos(), p.Self().Pos(), 1) {
				want = append(want, id)
			}
		}
		if got := p.Look(); !slices.Equal(got, want) {
			t.Errorf("robot %d at %v, t=%g: Look = %v, want %v", p.ID(), p.Self().Pos(), p.Now(), got, want)
		}
	}
	var prog func(*Proc)
	prog = func(p *Proc) {
		for {
			best, bestD := -1, math.Inf(1)
			for i, q := range positions {
				if claimed[i] {
					continue
				}
				if d := p.Engine().Metric().Dist(p.Self().Pos(), q); d < bestD {
					best, bestD = i, d
				}
			}
			if best < 0 {
				return
			}
			claimed[best] = true
			err := p.MoveTo(positions[best])
			look(p)
			if err != nil {
				return
			}
			p.TryWake(best+1, HandlerFunc(prog))
		}
	}
	return prog
}

// FuzzFaultedRun crashes, revives, deafens, duplicates, and corrupts random
// robots at fuzzer-chosen rates and asserts the engine's core fault
// invariants: no panic on any draw, the roster is conserved (faults disable
// robots, never remove them), no sleeper wakes twice, the awakened count is
// consistent, every Look sees exactly the sleepers within reach and is
// counted and traced, and the whole faulted run — events, counters,
// makespan — is bit-identical when replayed from the same seed.
func FuzzFaultedRun(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(1), uint8(24))  // crash-stop
	f.Add(int64(7), uint8(60), uint8(2), uint8(16))  // crash-recovery
	f.Add(int64(3), uint8(80), uint8(3), uint8(20))  // wake-drop
	f.Add(int64(9), uint8(50), uint8(4), uint8(12))  // wake-dup
	f.Add(int64(5), uint8(0), uint8(5), uint8(18))   // byzantine
	f.Add(int64(11), uint8(100), uint8(1), uint8(8)) // every robot faulty
	f.Add(int64(2), uint8(30), uint8(0), uint8(10))  // tolerant mode, no faults
	f.Fuzz(func(t *testing.T, seed int64, rateByte, kindByte, nByte uint8) {
		n := 4 + int(nByte)%29 // 4..32 sleepers
		kind := FaultKind(int(kindByte) % 6)
		rate := float64(int(rateByte)%101) / 100
		rng := rngstream.New(seed, 99)
		positions := make([]geom.Point, n)
		for i := range positions {
			positions[i] = geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		}
		plan := &FaultPlan{
			Kind: kind, Seed: seed, Rate: rate,
			CrashDist: 3, Downtime: 2, Byzantine: 1 + int(uint64(seed)&3),
		}
		if kind == FaultByzantine {
			plan.WanderPath = func(id int, from geom.Point) []geom.Point {
				return []geom.Point{geom.Pt(float64(id), 0), from}
			}
		}

		run := func() (Result, []Event, int) {
			var events []Event
			e := NewEngine(Config{
				Source:   geom.Origin,
				Sleepers: positions,
				Faults:   plan,
				Trace:    func(ev Event) { events = append(events, ev) },
			})
			claimed := make([]bool, n)
			e.Spawn(SourceID, fuzzProgram(t, positions, claimed))
			res, err := e.Run()
			if err != nil && !errors.Is(err, ErrDeadlock) {
				t.Fatalf("run: %v", err)
			}
			return res, events, e.NumRobots()
		}

		res, events, robots := run()
		if robots != n+1 {
			t.Fatalf("roster not conserved: %d robots, want %d", robots, n+1)
		}
		woken := make(map[int]int)
		looks := int64(0)
		for _, ev := range events {
			switch ev.Kind {
			case "wake":
				woken[ev.Robot]++
			case "look":
				looks++
			}
		}
		if looks != res.Looks {
			t.Fatalf("%d look events, Result.Looks = %d", looks, res.Looks)
		}
		for id, c := range woken {
			if c != 1 {
				t.Fatalf("robot %d woke %d times", id, c)
			}
			if id < 1 || id > n {
				t.Fatalf("wake event for out-of-roster robot %d", id)
			}
		}
		if res.Awakened != len(woken) {
			t.Fatalf("Awakened = %d but %d wake events", res.Awakened, len(woken))
		}
		if res.Awakened < 0 || res.Awakened > n {
			t.Fatalf("Awakened = %d out of [0,%d]", res.Awakened, n)
		}
		if res.AllAwake != (res.Awakened == n) {
			t.Fatalf("AllAwake=%v with %d/%d awakened", res.AllAwake, res.Awakened, n)
		}

		res2, events2, _ := run()
		if res.Makespan != res2.Makespan || res.Awakened != res2.Awakened ||
			res.Faults != res2.Faults {
			t.Fatalf("replay diverged: %+v vs %+v", res, res2)
		}
		if len(events) != len(events2) {
			t.Fatalf("replay emitted %d events vs %d", len(events), len(events2))
		}
		for i := range events {
			if events[i] != events2[i] {
				t.Fatalf("event %d diverged: %+v vs %+v", i, events[i], events2[i])
			}
		}
	})
}
