package wakeup

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

func randomTargets(rng *rand.Rand, n int, w float64) []Target {
	ts := make([]Target, n)
	for i := range ts {
		ts[i] = Target{ID: i + 1, Pos: geom.Pt(rng.Float64()*w, rng.Float64()*w)}
	}
	return ts
}

func idsOf(ts []Target) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

func TestBuildTreeEmpty(t *testing.T) {
	if root := BuildTreeIn(nil, geom.Origin, nil); root != nil {
		t.Errorf("empty targets should give nil tree, got %+v", root)
	}
	if m := MakespanIn(nil, geom.Origin, nil); m != 0 {
		t.Errorf("nil tree makespan = %v", m)
	}
}

func TestBuildTreeSingle(t *testing.T) {
	root := BuildTreeIn(nil, geom.Origin, []Target{{ID: 5, Pos: geom.Pt(3, 4)}})
	if root == nil || root.ID != 5 || len(root.Children) != 0 {
		t.Fatalf("tree = %+v", root)
	}
	if m := MakespanIn(nil, geom.Origin, root); math.Abs(m-5) > 1e-9 {
		t.Errorf("makespan = %v, want 5", m)
	}
}

func TestBuildTreeValidRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		ts := randomTargets(rng, n, 10)
		root := BuildTreeIn(nil, geom.Origin, ts)
		if !Valid(root, idsOf(ts)) {
			t.Fatalf("trial %d: invalid tree over %d targets", trial, n)
		}
		if Size(root) != n {
			t.Fatalf("trial %d: size = %d, want %d", trial, Size(root), n)
		}
	}
}

func TestMakespanLinearInR(t *testing.T) {
	// Lemma 2 analogue: a robot at the center of a width-R square wakes
	// everything within c·R for a constant c (ours ≈ 10.1; check 12 with
	// slack for the entry leg).
	rng := rand.New(rand.NewSource(29))
	for _, width := range []float64{1, 4, 16, 64} {
		worst := 0.0
		for trial := 0; trial < 20; trial++ {
			n := 5 + rng.Intn(120)
			ts := make([]Target, n)
			for i := range ts {
				ts[i] = Target{ID: i + 1, Pos: geom.Pt(
					(rng.Float64()-0.5)*width, (rng.Float64()-0.5)*width)}
			}
			m := MakespanIn(nil, geom.Origin, BuildTreeIn(nil, geom.Origin, ts))
			if r := m / width; r > worst {
				worst = r
			}
		}
		if worst > 12 {
			t.Errorf("width %v: makespan/width = %v, want ≤ 12", width, worst)
		}
	}
}

func TestMakespanScalesLinearly(t *testing.T) {
	// Same layout scaled 8x must give exactly 8x makespan (scale invariance
	// of the construction).
	rng := rand.New(rand.NewSource(41))
	ts := randomTargets(rng, 60, 10)
	big := make([]Target, len(ts))
	for i, x := range ts {
		big[i] = Target{ID: x.ID, Pos: x.Pos.Scale(8)}
	}
	m1 := MakespanIn(nil, geom.Origin, BuildTreeIn(nil, geom.Origin, ts))
	m8 := MakespanIn(nil, geom.Origin, BuildTreeIn(nil, geom.Origin, big))
	if math.Abs(m8-8*m1) > 1e-6*m8 {
		t.Errorf("m8 = %v, want 8·m1 = %v", m8, 8*m1)
	}
}

func TestCoLocatedTargets(t *testing.T) {
	// All targets at the same point: degenerate-region chain, makespan ≈
	// distance to the point.
	ts := make([]Target, 20)
	for i := range ts {
		ts[i] = Target{ID: i + 1, Pos: geom.Pt(3, 4)}
	}
	root := BuildTreeIn(nil, geom.Origin, ts)
	if !Valid(root, idsOf(ts)) {
		t.Fatal("invalid tree for co-located targets")
	}
	if m := MakespanIn(nil, geom.Origin, root); math.Abs(m-5) > 1e-6 {
		t.Errorf("makespan = %v, want ≈ 5", m)
	}
}

func TestDepthReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	ts := randomTargets(rng, 200, 20)
	root := BuildTreeIn(nil, geom.Origin, ts)
	if d := Depth(root); d > 200 {
		t.Errorf("depth = %d for 200 targets", d)
	}
}

func TestPropagateWakesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := make([]geom.Point, 40)
	ts := make([]Target, 40)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		ts[i] = Target{ID: i + 1, Pos: pts[i]}
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: pts})
	root := BuildTreeIn(nil, geom.Origin, ts)
	contCount := 0
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		if err := new(Builder).Propagate(p, root, func(q *sim.Proc) { contCount++ }); err != nil {
			t.Errorf("Propagate: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatalf("only %d of %d awakened", res.Awakened, len(pts))
	}
	if contCount != len(pts) {
		t.Errorf("cont ran on %d robots, want %d", contCount, len(pts))
	}
	// Simulated makespan must equal the analytic Makespan.
	if math.Abs(res.Makespan-MakespanIn(nil, geom.Origin, root)) > 1e-9 {
		t.Errorf("simulated %v vs analytic %v", res.Makespan, MakespanIn(nil, geom.Origin, root))
	}
}

func TestPropagateParallelism(t *testing.T) {
	// Two far-apart clusters: propagation must overlap in time, so the
	// makespan is far below the total travel.
	var pts []geom.Point
	var ts []Target
	for i := 0; i < 8; i++ {
		p := geom.Pt(10+float64(i)*0.01, 0)
		pts = append(pts, p)
		ts = append(ts, Target{ID: i + 1, Pos: p})
	}
	for i := 0; i < 8; i++ {
		p := geom.Pt(-10-float64(i)*0.01, 0)
		pts = append(pts, p)
		ts = append(ts, Target{ID: i + 9, Pos: p})
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: pts})
	root := BuildTreeIn(nil, geom.Origin, ts)
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		if err := new(Builder).Propagate(p, root, nil); err != nil {
			t.Errorf("Propagate: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAwake {
		t.Fatal("not all awake")
	}
	total := res.TotalEnergy
	if res.Makespan >= total {
		t.Errorf("no parallelism: makespan %v ≥ total travel %v", res.Makespan, total)
	}
	// First wake costs ~10, the cross-cluster branch ~20 more; the whole
	// thing stays within 2·diam ≈ 40 while serial travel would exceed 40.
	if res.Makespan > 40 {
		t.Errorf("makespan = %v, want ≤ 2·diam = 40", res.Makespan)
	}
}

func TestPropagateMatchesMakespanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(60)
		pts := make([]geom.Point, n)
		ts := make([]Target, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*8, rng.Float64()*8)
			ts[i] = Target{ID: i + 1, Pos: pts[i]}
		}
		start := geom.Pt(4, 4)
		e := sim.NewEngine(sim.Config{Source: start, Sleepers: pts})
		root := BuildTreeIn(nil, start, ts)
		e.Spawn(sim.SourceID, func(p *sim.Proc) {
			if err := new(Builder).Propagate(p, root, nil); err != nil {
				t.Errorf("Propagate: %v", err)
			}
		})
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllAwake {
			t.Fatalf("trial %d: not all awake", trial)
		}
		if math.Abs(res.Makespan-MakespanIn(nil, start, root)) > 1e-9 {
			t.Fatalf("trial %d: sim %v vs analytic %v", trial, res.Makespan, MakespanIn(nil, start, root))
		}
	}
}

func TestValidRejectsBadTrees(t *testing.T) {
	// Duplicate id.
	bad := &Node{ID: 1, Children: []*Node{{ID: 1}}}
	if Valid(bad, []int{1}) {
		t.Error("duplicate id accepted")
	}
	// Ternary node.
	tern := &Node{ID: 1, Children: []*Node{{ID: 2}, {ID: 3}, {ID: 4}}}
	if Valid(tern, []int{1, 2, 3, 4}) {
		t.Error("ternary node accepted")
	}
	// Missing id.
	chain := &Node{ID: 1}
	if Valid(chain, []int{1, 2}) {
		t.Error("missing id accepted")
	}
}

// WakeAsleep wakes exactly the still-asleep robots of its ids — given in
// any order, repeats included — along the tree BuildTreeIn builds over
// them in ascending order, with positions and (on a heterogeneous engine)
// profiles read from the engine's robot records.
func TestWakeAsleepMatchesBuiltTree(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, hetero := range []bool{false, true} {
		ts := randomTargets(rng, 30, 8)
		pts := make([]geom.Point, len(ts))
		var profiles []sim.Profile
		for i := range ts {
			pts[i] = ts[i].Pos
			if hetero {
				ts[i].Speed, ts[i].Capacity = 0.5+rng.Float64(), 50+rng.Float64()*50
				profiles = append(profiles, sim.Profile{Speed: ts[i].Speed, Capacity: ts[i].Capacity})
			}
		}
		ids := rng.Perm(len(ts))
		for i := range ids {
			ids[i]++
		}
		ids = append(ids, ids[:5]...)
		run := func(wake func(p *sim.Proc) error) []sim.Event {
			var events []sim.Event
			e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: pts, Profiles: profiles,
				Trace: func(ev sim.Event) { events = append(events, ev) }})
			e.Spawn(sim.SourceID, func(p *sim.Proc) {
				// Robot 1 is awake before the tree is built, so WakeAsleep
				// must leave it out.
				if err := p.MoveTo(pts[0]); err != nil {
					t.Error(err)
				}
				p.Wake(1, nil)
				if err := wake(p); err != nil {
					t.Error(err)
				}
			})
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return events
		}
		got := run(func(p *sim.Proc) error { return WakeAsleep(p, ids, nil) })
		want := run(func(p *sim.Proc) error {
			return new(Builder).Propagate(p, BuildTreeIn(nil, p.Self().Pos(), ts[1:]), nil)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hetero=%v: WakeAsleep's %d events differ from the built tree's %d", hetero, len(got), len(want))
		}
	}
}
