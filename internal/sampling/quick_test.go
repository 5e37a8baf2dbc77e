package sampling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"freezetag/internal/geom"
)

func ptsFromSeed(seed int64, maxN int, span float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxN)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*span, rng.Float64()*span)
	}
	return pts
}

func cfg() *quick.Config {
	return &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(5))}
}

// Property: greedily thinning any point set to pairwise distance > ℓ yields
// an ℓ-sampling that covers the original set.
func TestQuickGreedyThinningIsSamplingAndCovers(t *testing.T) {
	f := func(seed int64) bool {
		pts := ptsFromSeed(seed, 80, 12)
		ell := 1.5
		var samples []geom.Point
		for _, p := range pts {
			ok := true
			for _, s := range samples {
				if s.Within(p, ell) {
					ok = false
					break
				}
			}
			if ok {
				samples = append(samples, p)
			}
		}
		return IsLSamplingIn(nil, samples, ell) && Covers(samples, pts, ell)
	}
	if err := quick.Check(f, cfg()); err != nil {
		t.Error(err)
	}
}

// Property: any subset of an ℓ-sampling is an ℓ-sampling; coverage is
// monotone in the sample set.
func TestQuickSamplingSubset(t *testing.T) {
	f := func(seed int64) bool {
		pts := ptsFromSeed(seed, 40, 20)
		ell := 2.0
		var samples []geom.Point
		for _, p := range pts {
			ok := true
			for _, s := range samples {
				if s.Within(p, ell) {
					ok = false
					break
				}
			}
			if ok {
				samples = append(samples, p)
			}
		}
		if len(samples) < 2 {
			return true
		}
		sub := samples[:len(samples)/2]
		if !IsLSamplingIn(nil, sub, ell) {
			return false
		}
		// Coverage monotonicity: whatever sub covers, samples cover too.
		var covered []geom.Point
		for _, p := range pts {
			for _, s := range sub {
				if s.Within(p, ell) {
					covered = append(covered, p)
					break
				}
			}
		}
		return Covers(samples, covered, ell)
	}
	if err := quick.Check(f, cfg()); err != nil {
		t.Error(err)
	}
}

// Property: Lemma 4's bound holds for every greedy sampling of a bounded
// square.
func TestQuickLemma4(t *testing.T) {
	f := func(seed int64) bool {
		span := 10.0
		pts := ptsFromSeed(seed, 120, span)
		ell := 1.0
		var samples []geom.Point
		for _, p := range pts {
			ok := true
			for _, s := range samples {
				if s.Within(p, ell) {
					ok = false
					break
				}
			}
			if ok {
				samples = append(samples, p)
			}
		}
		return len(samples) <= MaxSamples(span, ell)
	}
	if err := quick.Check(f, cfg()); err != nil {
		t.Error(err)
	}
}

// Property: SortSeeds is a permutation (no seed lost or duplicated).
func TestQuickSortSeedsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		pts := ptsFromSeed(seed, 50, 8)
		s := geom.Sq(geom.Pt(4, 4), 10)
		sorted := SortSeeds(s, pts)
		if len(sorted) != len(pts) {
			return false
		}
		count := map[geom.Point]int{}
		for _, p := range pts {
			count[p]++
		}
		for _, p := range sorted {
			count[p]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg()); err != nil {
		t.Error(err)
	}
}
