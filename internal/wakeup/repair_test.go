package wakeup

import (
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// propagateRun realizes one tree propagation over 40 random sleepers,
// optionally under a fault plan and with the repair layer armed, capturing
// the full event stream.
func propagateRun(t *testing.T, faults *sim.FaultPlan, repair bool) (sim.Result, []sim.Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ts := randomTargets(rng, 40, 12)
	sleepers := make([]geom.Point, len(ts))
	for i, tg := range ts {
		sleepers[i] = tg.Pos
	}
	var events []sim.Event
	e := sim.NewEngine(sim.Config{
		Source:   geom.Origin,
		Sleepers: sleepers,
		Faults:   faults,
		Trace:    func(ev sim.Event) { events = append(events, ev) },
	})
	root := BuildTreeIn(nil, geom.Origin, ts)
	e.Spawn(sim.SourceID, func(p *sim.Proc) { _ = new(Builder).Propagate(p, root, nil) })
	if repair {
		InstallRepair(e, RepairConfig{Poll: 0.5})
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// The headline zero-fault guarantee, part one: InstallRepair on a fault-free
// engine is a complete no-op — not one event of the run changes, bit for
// bit. The fault-free simulation is golden-locked upstream, so the repair
// layer must be invisible without a fault plan.
func TestRepairFaultFreeBitIdentical(t *testing.T) {
	base, baseEv := propagateRun(t, nil, false)
	armed, armedEv := propagateRun(t, nil, true)
	if len(baseEv) != len(armedEv) {
		t.Fatalf("event count changed: %d vs %d", len(baseEv), len(armedEv))
	}
	for i := range baseEv {
		if baseEv[i] != armedEv[i] {
			t.Fatalf("event %d changed: %+v vs %+v", i, baseEv[i], armedEv[i])
		}
	}
	if base.Makespan != armed.Makespan || base.Awakened != armed.Awakened {
		t.Fatalf("result changed: %+v vs %+v", base, armed)
	}
}

// Part two: a fault plan that injects nothing (FaultNone) with the repair
// layer armed must reproduce the fault-free wake schedule exactly — same
// wake order, same wake times, same makespan — with zero injections and
// zero repairs. The watched propagation variant may add monitor bookkeeping,
// but it must not perturb the schedule it guards.
func TestRepairZeroFaultSameSchedule(t *testing.T) {
	base, baseEv := propagateRun(t, nil, false)
	armed, armedEv := propagateRun(t, &sim.FaultPlan{Kind: sim.FaultNone, Seed: 1}, true)
	type wake struct {
		t     float64
		robot int
	}
	wakes := func(evs []sim.Event) []wake {
		var out []wake
		for _, ev := range evs {
			if ev.Kind == "wake" {
				out = append(out, wake{ev.T, ev.Robot})
			}
		}
		return out
	}
	bw, aw := wakes(baseEv), wakes(armedEv)
	if len(bw) != len(aw) {
		t.Fatalf("wake count: %d vs %d", len(bw), len(aw))
	}
	for i := range bw {
		if bw[i] != aw[i] {
			t.Fatalf("wake %d: fault-free %+v vs zero-fault repaired %+v", i, bw[i], aw[i])
		}
	}
	if base.Makespan != armed.Makespan {
		t.Fatalf("makespan: %v vs %v", base.Makespan, armed.Makespan)
	}
	if !armed.AllAwake {
		t.Fatal("zero-fault repaired run incomplete")
	}
	if got := armed.Faults; got.Injected() != 0 || got.Repairs != 0 {
		t.Fatalf("zero-fault run recorded faults: %+v", got)
	}
}
