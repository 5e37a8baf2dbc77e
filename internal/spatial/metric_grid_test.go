package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"freezetag/internal/geom"
)

// Metric-aware grids must agree with an O(n) brute-force scan for every
// query — the box pruning may only skip cells that provably cannot contain
// a match.
func TestGridWithinMatchesBruteForceUnderMetrics(t *testing.T) {
	metrics := []geom.Metric{geom.L1, geom.LInf, mustLp(t, 2.5)}
	for _, m := range metrics {
		t.Run(m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			g := NewGridIn(m, 1)
			pts := make(map[int]geom.Point)
			for id := 0; id < 300; id++ {
				p := geom.Pt((rng.Float64()-0.5)*40, (rng.Float64()-0.5)*40)
				pts[id] = p
				g.Insert(id, p)
			}
			for trial := 0; trial < 200; trial++ {
				q := geom.Pt((rng.Float64()-0.5)*44, (rng.Float64()-0.5)*44)
				r := rng.Float64() * 6
				got := g.Within(nil, q, r)
				sort.Ints(got)
				var want []int
				for id, p := range pts {
					if m.Dist(p, q) <= r+geom.Eps {
						want = append(want, id)
					}
				}
				sort.Ints(want)
				if len(got) != len(want) {
					t.Fatalf("Within(%v, %g): got %d ids, brute force %d", q, r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Within(%v, %g): got %v, want %v", q, r, got, want)
					}
				}
			}
		})
	}
}

// The ℓ2 grid keeps its exact pre-metric semantics: Within under an explicit
// L2 equals Within of a default grid, item for item.
func TestGridL2DefaultUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	def := NewGrid(1)
	exp := NewGridIn(geom.L2, 1)
	for id := 0; id < 200; id++ {
		p := geom.Pt((rng.Float64()-0.5)*20, (rng.Float64()-0.5)*20)
		def.Insert(id, p)
		exp.Insert(id, p)
	}
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt((rng.Float64()-0.5)*22, (rng.Float64()-0.5)*22)
		r := rng.Float64() * 4
		a, b := def.Within(nil, q, r), exp.Within(nil, q, r)
		sort.Ints(a)
		sort.Ints(b)
		if len(a) != len(b) {
			t.Fatalf("default vs explicit ℓ2 differ: %v vs %v", a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("default vs explicit ℓ2 differ: %v vs %v", a, b)
			}
		}
	}
}

func mustLp(t *testing.T, p float64) geom.Metric {
	t.Helper()
	m, err := geom.Lp(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
