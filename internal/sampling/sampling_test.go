package sampling

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

func TestIsLSampling(t *testing.T) {
	good := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0), geom.Pt(0, 3)}
	if !IsLSamplingIn(nil, good, 2) {
		t.Error("pairwise-3 set should be a 2-sampling")
	}
	bad := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if IsLSamplingIn(nil, bad, 2) {
		t.Error("distance-1 pair should not be a 2-sampling")
	}
	if !IsLSamplingIn(nil, nil, 2) || !IsLSamplingIn(nil, good[:1], 2) {
		t.Error("empty and singleton sets are always samplings")
	}
}

func TestCovers(t *testing.T) {
	samples := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)}
	pop := []geom.Point{geom.Pt(1, 0), geom.Pt(3.5, 0.5)}
	if !Covers(samples, pop, 2) {
		t.Error("population within 2 of samples should be covered")
	}
	if Covers(samples, append(pop, geom.Pt(10, 10)), 2) {
		t.Error("far point should break coverage")
	}
	if !Covers(nil, nil, 2) {
		t.Error("empty population is trivially covered")
	}
}

func TestMaxSamplesLemma4(t *testing.T) {
	// Greedily build a maximal ℓ-sampling of random squares and verify the
	// Lemma 4 bound |P′| ≤ 16R²/(πℓ²).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r := 4 + rng.Float64()*12
		ell := 0.5 + rng.Float64()*2
		var samples []geom.Point
		for i := 0; i < 4000; i++ {
			q := geom.Pt(rng.Float64()*r, rng.Float64()*r)
			ok := true
			for _, s := range samples {
				if s.Within(q, ell) {
					ok = false
					break
				}
			}
			if ok {
				samples = append(samples, q)
			}
		}
		if len(samples) > MaxSamples(r, ell) {
			t.Fatalf("trial %d: %d samples exceed Lemma 4 bound %d (R=%v ℓ=%v)",
				trial, len(samples), MaxSamples(r, ell), r, ell)
		}
	}
}

func TestSortSeedsClockwise(t *testing.T) {
	s := geom.Sq(geom.Origin, 10)
	// Seeds near the four borders: east, north, west, south.
	east := geom.Pt(4.5, 0)
	north := geom.Pt(0, 4.5)
	west := geom.Pt(-4.5, 0)
	south := geom.Pt(0, -4.5)
	got := SortSeeds(s, []geom.Point{west, north, east, south})
	// Clockwise from the angle-0 side: east, south, west, north (negative
	// angle ordering puts angle 0 first, then decreasing angle = clockwise:
	// east(0) → south(-π/2) → west(π)... verify by adjacency rather than
	// absolute start: consecutive elements must be 90° apart clockwise.
	idx := map[geom.Point]int{}
	for i, p := range got {
		idx[p] = i
	}
	// east must be immediately followed (mod 4) by south in clockwise order.
	if (idx[south]-idx[east]+4)%4 != 1 {
		t.Errorf("order = %v: south should follow east clockwise", got)
	}
	if (idx[west]-idx[south]+4)%4 != 1 {
		t.Errorf("order = %v: west should follow south clockwise", got)
	}
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestSortSeedsDeterministic(t *testing.T) {
	s := geom.Sq(geom.Origin, 8)
	rng := rand.New(rand.NewSource(19))
	seeds := make([]geom.Point, 20)
	for i := range seeds {
		seeds[i] = geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
	}
	a := SortSeeds(s, seeds)
	// Shuffle and re-sort: same order.
	shuffled := append([]geom.Point(nil), seeds...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := SortSeeds(s, shuffled)
	for i := range a {
		if !a[i].Eq(b[i]) {
			t.Fatalf("order differs at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProjectToBorder(t *testing.T) {
	s := geom.Sq(geom.Origin, 10)
	cases := []struct {
		in, want geom.Point
	}{
		{geom.Pt(4, 0), geom.Pt(5, 0)},   // near east side
		{geom.Pt(0, -4), geom.Pt(0, -5)}, // near south side
		{geom.Pt(7, 1), geom.Pt(5, 1)},   // outside: clamp
	}
	for _, c := range cases {
		got := projectToBorder(s, c.in)
		if !got.Eq(c.want) {
			t.Errorf("projectToBorder(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Border points project to themselves.
	onEdge := geom.Pt(5, 2)
	if got := projectToBorder(s, onEdge); !got.Eq(onEdge) {
		t.Errorf("border point moved to %v", got)
	}
	// Projection always lands on the border.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*12-6, rng.Float64()*12-6)
		q := projectToBorder(s, p)
		r := s.Rect()
		onX := math.Abs(q.X-r.Min.X) < 1e-9 || math.Abs(q.X-r.Max.X) < 1e-9
		onY := math.Abs(q.Y-r.Min.Y) < 1e-9 || math.Abs(q.Y-r.Max.Y) < 1e-9
		if !(onX && q.Y >= r.Min.Y-1e-9 && q.Y <= r.Max.Y+1e-9) &&
			!(onY && q.X >= r.Min.X-1e-9 && q.X <= r.Max.X+1e-9) {
			t.Fatalf("projection of %v = %v not on border", p, q)
		}
	}
}
