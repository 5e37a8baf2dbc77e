package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/spatial"
)

// A warm engine's Look allocates nothing: it fills the engine's own
// buffer, so thousands of Looks over the same crowd (sleeping robots and the
// woken robots' grid entries both) reuse the storage the first one grew.
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
	var seen []int
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		for id := 1; id <= 5; id++ {
			p.Wake(id, nil)
		}
		seen = slices.Clone(p.Look())
		allocs = testing.AllocsPerRun(1, func() {
			for range 2000 {
				p.Look()
			}
		})
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var want []int
	for id := 6; id <= 30; id++ {
		if e.Robot(id).InitPos().Within(geom.Origin, 1) {
			want = append(want, id)
		}
	}
	if len(want) != 25 || !slices.Equal(seen, want) {
		t.Fatalf("Look = %v, want the 25 sleeping robots %v", seen, want)
	}
	if allocs != 0 {
		t.Fatalf("2,000 warm Looks allocate %.0f times, want 0", allocs)
	}
}

// After a whole AGrid solve of a 1024-robot disk, the engine's Look buffer
// holds no more than the largest grid query of the run, allowing for
// append's doubling: memory for one Look, not for the run's thousands of
// them. A grid query sees every robot that started within distance 1,
// woken ones included, so the bound is computed over all start positions.
func TestLookBuffersHoldOneLook(t *testing.T) {
	inst, err := instance.Family("disk", 1024, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	starts := spatial.NewGridIn(nil, 1)
	for i, p := range inst.Points {
		starts.Insert(i+1, p)
	}
	var query []int
	maxQuery := 0
	e := sim.NewEngine(sim.Config{Source: inst.Source, Sleepers: inst.Points, Trace: func(ev sim.Event) {
		if ev.Kind == "look" {
			query = starts.Within(query[:0], ev.Pos, 1)
			maxQuery = max(maxQuery, len(query))
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
	if buf := sim.LookBuffer(e); cap(buf) > 2*maxQuery {
		t.Fatalf("after %d Looks the buffer holds %d ids; the largest grid query saw %d",
			res.Looks, cap(buf), maxQuery)
	}
	t.Logf("%d Looks; buffer holds %d ids, largest grid query %d", res.Looks, cap(sim.LookBuffer(e)), maxQuery)
}
