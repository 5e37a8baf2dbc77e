package explore

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

func TestPlanRectCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		w := 0.5 + rng.Float64()*12
		h := 0.5 + rng.Float64()*12
		r := geom.RectWH(geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5), w, h)
		pl := PlanRect(r)
		probes := make([]geom.Point, 200)
		for i := range probes {
			probes[i] = geom.Pt(
				r.Min.X+rng.Float64()*w,
				r.Min.Y+rng.Float64()*h,
			)
		}
		// Corners are the hardest points; include them.
		for _, c := range r.Corners() {
			probes = append(probes, c)
		}
		if !pl.CoversIn(nil, probes) {
			t.Fatalf("trial %d: plan does not cover rect %v", trial, r)
		}
	}
}

func TestPlanRectLengthBound(t *testing.T) {
	// Lemma 1: length O(wh + w + h). Check an explicit constant: the
	// serpentine visits ny rows of length ≤ w with ≤ √2·ny of vertical travel.
	for _, dim := range [][2]float64{{4, 4}, {10, 2}, {2, 10}, {20, 20}, {1, 1}} {
		w, h := dim[0], dim[1]
		r := geom.RectWH(geom.Origin, w, h)
		pl := PlanRect(r)
		length := pl.LengthIn(nil, r.Min, r.Min)
		bound := w*h + 3*(w+h) + 10
		if length > bound {
			t.Errorf("plan length %v exceeds bound %v for %vx%v", length, bound, w, h)
		}
	}
}

func TestPlanDegenerate(t *testing.T) {
	r := geom.RectWH(geom.Pt(3, 3), 0, 0)
	pl := PlanRect(r)
	if len(pl.Stops) != 1 || !pl.Stops[0].Eq(geom.Pt(3, 3)) {
		t.Errorf("degenerate plan = %v", pl.Stops)
	}
}

// refPlanRect is the sweep's stop list as it was materialized before
// lattices computed their stops on demand: nx·ny stops, row by row,
// serpentine.
func refPlanRect(r geom.Rect, pitch float64) []geom.Point {
	w, h := r.Width(), r.Height()
	nx := int(math.Ceil(w / pitch))
	if nx < 1 {
		nx = 1
	}
	ny := int(math.Ceil(h / pitch))
	if ny < 1 {
		ny = 1
	}
	dx, dy := w/float64(nx), h/float64(ny)
	stops := make([]geom.Point, 0, nx*ny)
	for row := 0; row < ny; row++ {
		y := r.Min.Y + (float64(row)+0.5)*dy
		for col := 0; col < nx; col++ {
			c := col
			if row%2 == 1 {
				c = nx - 1 - col // serpentine
			}
			x := r.Min.X + (float64(c)+0.5)*dx
			stops = append(stops, geom.Pt(x, y))
		}
	}
	return stops
}

// The lattice walks exactly the materialized stop list, bit for bit, under
// every metric's pitch, on random, thin and degenerate rectangles.
func TestLatticeMatchesMaterializedPlan(t *testing.T) {
	lp3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for _, m := range []geom.Metric{geom.L2, geom.L1, geom.LInf, lp3} {
		for trial := 0; trial < 200; trial++ {
			w, h := rng.Float64()*40, rng.Float64()*40
			switch trial % 5 {
			case 1:
				w = rng.Float64() * 0.5 // one column
			case 2:
				h = rng.Float64() * 1e-9 // one row
			case 3:
				h = 0 // a segment
			case 4:
				w, h = 0, 0 // a point
			}
			r := geom.RectWH(geom.Pt(rng.Float64()*2e3-1e3, rng.Float64()*2e3-1e3), w, h)
			want := refPlanRect(r, geom.MetricOrL2(m).InscribedSquare())
			l := RectLattice(m, r)
			var got []geom.Point
			for row := 0; row < l.Rows; row++ {
				for col := 0; col < l.Cols; col++ {
					got = append(got, l.Stop(row, col))
				}
			}
			if m == geom.L2 {
				if pl := PlanRect(r); !sameBits(pl.Stops, got) {
					t.Fatalf("PlanRect(%v) differs from its lattice", r)
				}
			}
			if !sameBits(got, want) {
				t.Fatalf("%s lattice of %v: %d stops differ from the materialized plan's %d",
					m.Name(), r, len(got), len(want))
			}
		}
	}
}

func sameBits(a, b []geom.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}

// A lattice holds O(1) memory: planning a 10⁹ × 10⁹ sweep, whose stop list
// would not fit in an int-indexed slice, and reading its first and last
// stops allocates nothing. The stops cover the corners they start and end
// at.
func TestLatticeOfHugeRectAllocatesNothing(t *testing.T) {
	r := geom.RectWH(geom.Origin, 1e9, 1e9)
	var first, last geom.Point
	allocs := testing.AllocsPerRun(10, func() {
		l := RectLattice(nil, r)
		first, last = l.Stop(0, 0), l.Stop(l.Rows-1, l.Cols-1)
	})
	if allocs != 0 {
		t.Fatalf("planning a 1e9 × 1e9 sweep allocates %.0f times, want 0", allocs)
	}
	l := RectLattice(nil, r)
	if l.Rows%2 != 0 {
		t.Fatalf("%d rows: the test expects an even count, so the walk ends on the left", l.Rows)
	}
	if d := first.Dist(r.Min); d > 1+1e-6 {
		t.Errorf("first stop %v is %v from the lower-left corner", first, d)
	}
	if d := last.Dist(geom.Pt(r.Min.X, r.Max.Y)); d > 1+1e-6 {
		t.Errorf("last stop %v is %v from the upper-left corner", last, d)
	}
}

func TestRectFindsAllSleepers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	region := geom.RectWH(geom.Origin, 8, 8)
	var sleepers []geom.Point
	for i := 0; i < 25; i++ {
		sleepers = append(sleepers, geom.Pt(rng.Float64()*8, rng.Float64()*8))
	}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	var res *Result
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		var err error
		res, err = Rect(p, nil, region, geom.Pt(4, 4))
		if err != nil {
			t.Errorf("Rect: %v", err)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(res.Asleep) != len(sleepers) {
		t.Fatalf("found %d of %d sleepers", len(res.Asleep), len(sleepers))
	}
	for id, pos := range res.Asleep {
		if !pos.Eq(sleepers[id-1]) {
			t.Errorf("sleeper %d at %v, recorded %v", id, sleepers[id-1], pos)
		}
	}
	// The explorer must end at the rendezvous point.
	if !e.Robot(0).Pos().Eq(geom.Pt(4, 4)) {
		t.Errorf("explorer ended at %v", e.Robot(0).Pos())
	}
}

func TestRectTeamSpeedup(t *testing.T) {
	// A team of k robots should explore in roughly 1/k the single-robot
	// sweep time plus overhead (Lemma 1: O(wh/k + w + h)).
	region := geom.RectWH(geom.Origin, 16, 16)
	rng := rand.New(rand.NewSource(33))
	var sleepers []geom.Point
	// Four team members sleeping at the source, plus targets spread out.
	for i := 0; i < 3; i++ {
		sleepers = append(sleepers, geom.Origin)
	}
	for i := 0; i < 20; i++ {
		sleepers = append(sleepers, geom.Pt(rng.Float64()*16, rng.Float64()*16))
	}
	durations := map[int]float64{}
	for _, k := range []int{1, 4} {
		e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
		e.Spawn(sim.SourceID, func(p *sim.Proc) {
			var members []int
			for i := 1; i < k; i++ {
				p.Wake(i, nil)
				members = append(members, i)
			}
			start := p.Now()
			res, err := Rect(p, members, region, geom.Pt(8, 8))
			if err != nil {
				t.Errorf("Rect: %v", err)
			}
			durations[k] = p.Now() - start
			if len(res.Asleep) < 20 {
				t.Errorf("k=%d found only %d sleepers", k, len(res.Asleep))
			}
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if durations[4] >= durations[1] {
		t.Errorf("team of 4 (%v) not faster than single robot (%v)", durations[4], durations[1])
	}
	if durations[4] > durations[1]/2 {
		t.Errorf("team of 4 speedup too weak: %v vs %v", durations[4], durations[1])
	}
}

func TestRectSynchronizedArrival(t *testing.T) {
	// All team members must be co-located at dest when Rect returns.
	region := geom.RectWH(geom.Origin, 10, 10)
	sleepers := []geom.Point{geom.Origin, geom.Origin, geom.Pt(9, 9)}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	dest := geom.Pt(5, 5)
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		p.Wake(1, nil)
		p.Wake(2, nil)
		if _, err := Rect(p, []int{1, 2}, region, dest); err != nil {
			t.Errorf("Rect: %v", err)
		}
		for _, id := range []int{1, 2} {
			if !p.Engine().Robot(id).Pos().Eq(dest) {
				t.Errorf("member %d at %v, want %v", id, p.Engine().Robot(id).Pos(), dest)
			}
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpiralFindsTarget(t *testing.T) {
	target := geom.Pt(3, 2)
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: []geom.Point{target}})
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		s, found, err := Spiral(p, 10)
		if err != nil {
			t.Errorf("Spiral: %v", err)
		}
		if !found || s.ID != 1 {
			t.Errorf("found=%v sighting=%+v", found, s)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpiralCostQuadratic(t *testing.T) {
	// Discovery cost of a target at distance D grows ~quadratically: the
	// spiral must sweep area πD² at width-2 coverage per unit length.
	cost := func(d float64) float64 {
		e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(d, 0)}})
		var c float64
		e.Spawn(sim.SourceID, func(p *sim.Proc) {
			if _, found, err := Spiral(p, d+2); err != nil || !found {
				t.Errorf("spiral(d=%v): found=%v err=%v", d, found, err)
			}
			c = p.Self().Energy()
		})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c4, c16 := cost(4), cost(16)
	ratio := c16 / c4
	// Quadratic growth: 16x area; accept 8x..32x.
	if ratio < 8 || ratio > 32 {
		t.Errorf("spiral cost ratio = %v (c4=%v c16=%v), want ~16", ratio, c4, c16)
	}
}

func TestSpiralMissReturnsNotFound(t *testing.T) {
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(50, 0)}})
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		_, found, err := Spiral(p, 5)
		if err != nil {
			t.Errorf("Spiral: %v", err)
		}
		if found {
			t.Error("target at 50 should not be found within radius 5")
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpiralPlanCoverage(t *testing.T) {
	pl := SpiralPlanIn(nil, geom.Origin, 6)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		ang := rng.Float64() * 2 * math.Pi
		r := rng.Float64() * 5 // stay a pitch inside maxR
		probe := geom.Pt(r*math.Cos(ang), r*math.Sin(ang))
		if !pl.CoversIn(nil, []geom.Point{probe}) {
			t.Fatalf("spiral misses %v (r=%v)", probe, r)
		}
	}
}

// The discovery pitch is metric-calibrated (1/Stretch): under every
// supported metric, every point of the spiral's interior must be within
// metric distance 1 of some stop. Under ℓ1 the old ℓ2-calibrated pitch 1
// left a ~0.4% coverage gap — this sweep would catch it.
func TestSpiralPlanCoverageIn(t *testing.T) {
	lp15, err := geom.Lp(1.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	center := geom.Pt(3, -2)
	for _, m := range []geom.Metric{geom.L1, geom.L2, geom.LInf, lp15} {
		pl := SpiralPlanIn(m, center, 6)
		misses := 0
		for i := 0; i < 4000; i++ {
			ang := rng.Float64() * 2 * math.Pi
			r := rng.Float64() * 5 // stay a winding inside maxR
			probe := center.Add(geom.Pt(r*math.Cos(ang), r*math.Sin(ang)))
			if !pl.CoversIn(m, []geom.Point{probe}) {
				misses++
				t.Errorf("%s: spiral misses %v (r=%v)", m.Name(), probe, r)
				if misses > 5 {
					t.FailNow()
				}
			}
		}
	}
}

// The ℓ2 spiral is the same plan whether ℓ2 is passed or defaulted
// (Stretch = 1 ⇒ pitch 1), and the ℓ1 spiral is strictly finer (pitch 1/√2).
func TestSpiralPlanPitchPerMetric(t *testing.T) {
	l2 := SpiralPlanIn(nil, geom.Origin, 4)
	l2In := SpiralPlanIn(geom.L2, geom.Origin, 4)
	if len(l2.Stops) != len(l2In.Stops) {
		t.Fatalf("explicit ℓ2 spiral diverged from the nil-metric one: %d vs %d stops", len(l2In.Stops), len(l2.Stops))
	}
	for i := range l2.Stops {
		if l2.Stops[i] != l2In.Stops[i] {
			t.Fatalf("ℓ2 stop %d moved: %v vs %v", i, l2In.Stops[i], l2.Stops[i])
		}
	}
	l1 := SpiralPlanIn(geom.L1, geom.Origin, 4)
	if len(l1.Stops) <= len(l2.Stops) {
		t.Fatalf("ℓ1 spiral should be finer: %d stops vs ℓ2's %d", len(l1.Stops), len(l2.Stops))
	}
}

func TestRectBudgetSurvivesPartially(t *testing.T) {
	// With a tiny budget the explorer halts but Rect still returns without
	// deadlock and reports what was seen.
	region := geom.RectWH(geom.Origin, 10, 10)
	e := sim.NewEngine(sim.Config{
		Source:   geom.Origin,
		Sleepers: []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(9.5, 9.5)},
		Budget:   3,
	})
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		res, err := Rect(p, nil, region, geom.Pt(5, 5))
		if err == nil {
			t.Error("expected budget error")
		}
		if len(res.Asleep) == 0 {
			t.Error("should have seen the nearby sleeper before halting")
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Error("expected a budget violation record")
	}
}
