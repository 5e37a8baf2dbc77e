package sampling

import (
	"math/rand"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

// runDFS builds an engine over sleepers and runs one DFSampling from the
// source position with the given parameters, returning the outcome.
func runDFS(t *testing.T, sleepers []geom.Point, region geom.Square, ell float64, target int) (Outcome, sim.Result) {
	t.Helper()
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	var out Outcome
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		var err error
		out, err = Run(p, nil, Request{
			Region: region.Rect(),
			Square: region,
			Ell:    ell,
			Target: target,
			Seeds:  []Seed{{Pos: geom.Origin, AsleepID: -1}},
		})
		if err != nil {
			t.Errorf("DFSampling: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestDFSamplingChain(t *testing.T) {
	// A chain of robots spaced 1.5 with ℓ=2: consecutive robots are within
	// 2ℓ of each other, so the DFS walks the chain; samples must be an
	// ℓ-sampling and, with a generous target, cover everything.
	var sleepers []geom.Point
	for i := 1; i <= 10; i++ {
		sleepers = append(sleepers, geom.Pt(float64(i)*1.5, 0))
	}
	region := geom.Sq(geom.Pt(8, 0), 40)
	out, _ := runDFS(t, sleepers, region, 2, 100)
	if !IsLSamplingIn(nil, out.Samples, 2) {
		t.Errorf("samples not a 2-sampling: %v", out.Samples)
	}
	if !out.Covered {
		t.Error("run below target must report Covered")
	}
	if !Covers(out.Samples, sleepers, 2) {
		t.Errorf("samples %v do not cover the chain", out.Samples)
	}
	if len(out.Discovered) != len(sleepers) {
		t.Errorf("discovered %d of %d", len(out.Discovered), len(sleepers))
	}
}

func TestDFSamplingTargetStops(t *testing.T) {
	var sleepers []geom.Point
	for i := 1; i <= 12; i++ {
		sleepers = append(sleepers, geom.Pt(float64(i)*2.5, 0))
	}
	region := geom.Sq(geom.Pt(15, 0), 80)
	out, _ := runDFS(t, sleepers, region, 2, 4)
	if len(out.Samples) != 4 {
		t.Fatalf("samples = %d, want target 4", len(out.Samples))
	}
	if out.Covered {
		t.Error("run that hit target must not report Covered")
	}
}

func TestDFSamplingRecruitsJoinTeam(t *testing.T) {
	var sleepers []geom.Point
	for i := 1; i <= 5; i++ {
		sleepers = append(sleepers, geom.Pt(float64(i)*1.8, 0))
	}
	region := geom.Sq(geom.Pt(5, 0), 30)
	out, _ := runDFS(t, sleepers, region, 1.5, 100)
	if len(out.Recruits) == 0 {
		t.Fatal("no recruits")
	}
	if len(out.Members) != len(out.Recruits) {
		t.Errorf("members = %v, recruits = %v", out.Members, out.Recruits)
	}
}

func TestDFSamplingRespectsRegion(t *testing.T) {
	// Robots outside the region must not be sampled or recruited.
	sleepers := []geom.Point{geom.Pt(1, 0), geom.Pt(10, 0)}
	region := geom.Sq(geom.Origin, 6) // only the first robot is inside
	out, _ := runDFS(t, sleepers, region, 2, 100)
	for _, id := range out.Recruits {
		if id == 2 {
			t.Error("recruited a robot outside the region")
		}
	}
	for _, s := range out.Samples {
		if !region.Contains(s) {
			t.Errorf("sample %v outside region", s)
		}
	}
}

func TestDFSamplingBranching(t *testing.T) {
	// A plus-shaped cluster around the origin: DFS must branch and backtrack
	// to reach all four arms.
	var sleepers []geom.Point
	for i := 1; i <= 3; i++ {
		d := float64(i) * 1.8
		sleepers = append(sleepers,
			geom.Pt(d, 0), geom.Pt(-d, 0), geom.Pt(0, d), geom.Pt(0, -d))
	}
	region := geom.Sq(geom.Origin, 30)
	out, _ := runDFS(t, sleepers, region, 1.5, 100)
	if !out.Covered {
		t.Fatal("should cover the plus shape")
	}
	if !Covers(out.Samples, sleepers, 1.5) {
		t.Errorf("arms not covered: %d samples", len(out.Samples))
	}
	if !IsLSamplingIn(nil, out.Samples, 1.5) {
		t.Error("not an ℓ-sampling")
	}
}

func TestDFSamplingCoverageRandomConnected(t *testing.T) {
	// Random-walk instances (ℓ-connected by construction): with an
	// unreachable target, DFSampling must discover every robot (Lemma 5
	// case 2) whenever the walk stays within 2ℓ steps.
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(20)
		pts := make([]geom.Point, n)
		cur := geom.Origin
		for i := range pts {
			cur = cur.Add(geom.Pt(rng.Float64()*1.6-0.8, rng.Float64()*1.6-0.8))
			pts[i] = cur
		}
		ell := 1.5 // walk steps are < 1.14, well under ℓ
		region := geom.Sq(geom.Origin, 200)
		out, _ := runDFS(t, pts, region, ell, 1<<30)
		if !out.Covered {
			t.Fatalf("trial %d: not covered", trial)
		}
		if len(out.Discovered) != n {
			t.Fatalf("trial %d: discovered %d of %d", trial, len(out.Discovered), n)
		}
		if !IsLSamplingIn(nil, out.Samples, ell) {
			t.Fatalf("trial %d: invalid sampling", trial)
		}
		if !Covers(out.Samples, pts, ell) {
			t.Fatalf("trial %d: population not covered", trial)
		}
	}
}

func TestDFSamplingSeedOrderUsed(t *testing.T) {
	// Two disjoint clusters reachable only from their own seeds: both seeds
	// must be visited once the first branch exhausts.
	sleepersA := []geom.Point{geom.Pt(5, 5), geom.Pt(6.5, 5)}
	sleepersB := []geom.Point{geom.Pt(-5, -5), geom.Pt(-6.5, -5)}
	all := append(append([]geom.Point{}, sleepersA...), sleepersB...)
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: all})
	region := geom.Sq(geom.Origin, 40)
	var out Outcome
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		var err error
		out, err = Run(p, nil, Request{
			Region: region.Rect(),
			Square: region,
			Ell:    2,
			Target: 1 << 30,
			Seeds: []Seed{
				{Pos: geom.Pt(5, 5), AsleepID: 1},
				{Pos: geom.Pt(-5, -5), AsleepID: 3},
			},
		})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out.Discovered) != 4 {
		t.Fatalf("discovered %d of 4", len(out.Discovered))
	}
	if !Covers(out.Samples, all, 2) {
		t.Errorf("not all robots covered: %v", out.Samples)
	}
}

func TestDFSamplingSkipsCoveredSeeds(t *testing.T) {
	// Seeds within ℓ of an existing sample are skipped, so two co-located
	// seeds yield one sample.
	sleepers := []geom.Point{geom.Pt(1, 0), geom.Pt(1.2, 0)}
	e := sim.NewEngine(sim.Config{Source: geom.Origin, Sleepers: sleepers})
	region := geom.Sq(geom.Origin, 20)
	var out Outcome
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		var err error
		out, err = Run(p, nil, Request{
			Region: region.Rect(),
			Square: region,
			Ell:    2,
			Target: 1 << 30,
			Seeds: []Seed{
				{Pos: geom.Pt(1, 0), AsleepID: 1},
				{Pos: geom.Pt(1.2, 0), AsleepID: 2},
			},
		})
		if err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(out.Samples) != 1 {
		t.Fatalf("samples = %v, want exactly 1 (second seed covered)", out.Samples)
	}
	if len(out.Recruits) != 1 {
		t.Errorf("recruits = %v", out.Recruits)
	}
}
