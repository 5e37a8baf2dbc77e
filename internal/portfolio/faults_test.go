package portfolio

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
)

func TestParseObjectiveUnderFaults(t *testing.T) {
	for _, s := range []string{"min-makespan-under-faults", "under-faults"} {
		obj, err := ParseObjective(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if obj.Name() != "min-makespan-under-faults(draws=3)" {
			t.Errorf("%q: Name = %q", s, obj.Name())
		}
	}
	obj, err := ParseObjective("under-faults:draws=5")
	if err != nil {
		t.Fatal(err)
	}
	if obj.(UnderFaults).Draws != 5 {
		t.Errorf("draws = %d, want 5", obj.(UnderFaults).Draws)
	}
	for _, s := range []string{"under-faults:draws=0", "under-faults:draws=x", "under-faults:d=5", "under-faults:draws=100"} {
		if _, err := ParseObjective(s); err == nil {
			t.Errorf("%q: expected an error", s)
		}
	}
}

func TestUnderFaultsNeedsFaults(t *testing.T) {
	in := instance.Line(8, 1)
	p := Portfolio{Algorithms: allFour(), Objective: UnderFaults{}}
	if _, err := Race(p, in, dftp.TupleForIn(nil, in), math.Inf(1), Options{}); err == nil {
		t.Error("UnderFaults without Options.Faults should fail")
	}
	bad := &dftp.Faults{Kind: "crash-stop", Rate: 2}
	if _, err := Race(p, in, dftp.TupleForIn(nil, in), math.Inf(1), Options{Faults: bad}); err == nil {
		t.Error("malformed fault spec should fail the race up front")
	}
}

// TestRaceUnderFaultsDeterministic: same portfolio + instance + fault spec ⇒
// identical winner, racer stats, and scores at any worker count.
func TestRaceUnderFaultsDeterministic(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(43)), 50, 10)
	f := &dftp.Faults{Kind: "crash-stop", Rate: 0.3, Seed: 11, Repair: true}
	p := Portfolio{Algorithms: allFour(), Objective: UnderFaults{Draws: 3}, Seed: 2}
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		res, err := Race(p, in, dftp.TupleForIn(nil, in), math.Inf(1), Options{Workers: workers, Faults: f})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.Aborted = 0 // scheduling-dependent by contract
		if ref == nil {
			ref = res
			continue
		}
		if res.Winner != ref.Winner || !reflect.DeepEqual(res.Racers, ref.Racers) {
			t.Fatalf("workers=%d diverged: winner %d vs %d", workers, res.Winner, ref.Winner)
		}
	}
	// With repair armed every draw completes, so the winner must be complete.
	if !ref.Res.AllAwake {
		t.Errorf("winner incomplete under repair: %+v", ref.Res.Faults)
	}
	if ref.Res.Faults.Injected() == 0 {
		t.Error("winning run reports no injected faults; the plan looks inert")
	}
}

// TestRaceFaultedTrace: a traced faulted race reproduces the winning run —
// the re-solve must use the representative draw's spec, not the base seed.
func TestRaceFaultedTrace(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(47)), 40, 10)
	f := &dftp.Faults{Kind: "crash-stop", Rate: 0.3, Seed: 21, Repair: true}
	p := Portfolio{Algorithms: allFour(), Objective: UnderFaults{Draws: 2}, Seed: 4}
	res, err := Race(p, in, dftp.TupleForIn(nil, in), math.Inf(1), Options{Trace: true, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("traced race returned no events")
	}
	// The trace must contain the winning run's wake of every robot plus the
	// injected fault events of the representative draw.
	wakes, faults := 0, 0
	for _, ev := range res.Events {
		switch {
		case ev.Kind == "wake":
			wakes++
		case ev.Kind == "fault-crash" || ev.Kind == "repair":
			faults++
		}
	}
	if wakes != in.N() {
		t.Errorf("trace has %d wakes, want %d", wakes, in.N())
	}
	if res.Res.Faults.CrashStops > 0 && faults == 0 {
		t.Error("winning run crashed robots but the trace has no fault events")
	}
}

// TestRaceFaultedSingleDraw: a non-UnderFaults objective under faults runs
// the spec verbatim (seed unchanged) for every racer.
func TestRaceFaultedSingleDraw(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(53)), 40, 10)
	f := &dftp.Faults{Kind: "wake-drop", Rate: 0.3, Seed: 9, Repair: true}
	res, err := Race(Portfolio{Algorithms: allFour(), Seed: 1}, in, dftp.TupleForIn(nil, in), math.Inf(1), Options{Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Res.AllAwake {
		t.Errorf("winner incomplete under repair")
	}
	if res.Res.Faults.WakeDrops == 0 {
		t.Error("no wake drops injected")
	}
}
