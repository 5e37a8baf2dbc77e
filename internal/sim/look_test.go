package sim_test

import (
	"math/rand"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

// A warm engine's Look allocates nothing: its snapshot fills the engine's
// own buffers, so thousands of Looks over the same crowd (asleep and awake
// sightings both) reuse the storage the first one grew.
func TestLookAllocatesNothingWhenWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sleepers := make([]geom.Point, 30)
	for i := range sleepers {
		if i < 5 {
			continue // co-located with the source, woken below
		}
		sleepers[i] = geom.Pt(rng.Float64()*1.2-0.6, rng.Float64()*1.2-0.6)
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	var allocs float64
	var asleep, awake int
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		for id := 1; id <= 5; id++ {
			p.Wake(id, nil)
		}
		snap := p.Look()
		asleep, awake = len(snap.Asleep), len(snap.Awake)
		allocs = testing.AllocsPerRun(1, func() {
			for range 2000 {
				p.Look()
			}
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if asleep != 25 || awake != 5 {
		t.Fatalf("Look saw %d asleep and %d awake robots, want 25 and 5", asleep, awake)
	}
	if allocs != 0 {
		t.Fatalf("2,000 warm Looks allocate %.0f times, want 0", allocs)
	}
}

// After a whole AGrid solve of a 1024-robot disk, the engine's snapshot
// buffers hold no more than the largest single Look of the run saw: memory
// for one Look, not for the run's thousands of them.
func TestLookBuffersHoldOneLook(t *testing.T) {
	inst, err := instance.Family("disk", 1024, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var e *sim.Engine
	maxAsleep, maxAwake := 0, 0
	e = sim.NewEngine(sim.Config{Source: inst.Source, Sleepers: inst.Points, Trace: func(ev sim.Event) {
		if ev.Kind == "look" {
			asleep, awake := sim.LookBuffers(e)
			maxAsleep, maxAwake = max(maxAsleep, len(asleep)), max(maxAwake, len(awake))
		}
	}})
	rep := dftp.AGrid{}.Install(e, dftp.TupleForIn(nil, inst))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake || len(rep.Misses) > 0 {
		t.Fatalf("solve incomplete: awake %v, misses %v", res.AllAwake, rep.Misses)
	}
	asleep, awake := sim.LookBuffers(e)
	if cap(asleep) > maxAsleep || cap(awake) > maxAwake {
		t.Fatalf("after %d Looks the buffers hold %d + %d sightings; the largest Look saw %d + %d",
			res.Looks, cap(asleep), cap(awake), maxAsleep, maxAwake)
	}
	t.Logf("%d Looks; buffers hold %d + %d sightings", res.Looks, cap(asleep), cap(awake))
}
