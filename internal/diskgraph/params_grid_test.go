package diskgraph

import (
	"math"
	"math/rand"
	"testing"

	"freezetag/internal/geom"
)

// gridOracleMetrics are the metric spellings the grid-vs-dense cross-checks
// run under: the three named metrics, a fractional ℓp, and an integer ℓp.
func gridOracleMetrics(t *testing.T) []geom.Metric {
	t.Helper()
	ms := []geom.Metric{geom.L1, geom.L2, geom.LInf}
	for _, p := range []float64{2.5, 3} {
		m, err := geom.Lp(p)
		if err != nil {
			t.Fatalf("Lp(%g): %v", p, err)
		}
		ms = append(ms, m)
	}
	return ms
}

// bottleneckInstances generates point sets across the shapes the grid pass
// must stay exact on: uniform spreads, tight clusters joined by long
// bottleneck edges, walks, collinear sets, and duplicated points. Sizes
// straddle denseBottleneckCutoff so both dispatch arms run.
func bottleneckInstances(rng *rand.Rand) [][]geom.Point {
	var out [][]geom.Point
	for _, n := range []int{0, 1, 2, denseBottleneckCutoff - 1, denseBottleneckCutoff + 5, 300} {
		uniform := make([]geom.Point, n)
		for i := range uniform {
			uniform[i] = geom.Pt(rng.Float64()*40-20, rng.Float64()*40-20)
		}
		out = append(out, uniform)
	}
	clustered := make([]geom.Point, 0, 240)
	for c := 0; c < 4; c++ {
		cx, cy := rng.Float64()*500-250, rng.Float64()*500-250
		for i := 0; i < 60; i++ {
			clustered = append(clustered, geom.Pt(cx+rng.Float64(), cy+rng.Float64()))
		}
	}
	out = append(out, clustered)
	walk := make([]geom.Point, 200)
	x, y := 0.0, 0.0
	for i := range walk {
		x += (rng.Float64() - 0.5) * 2
		y += (rng.Float64() - 0.5) * 2
		walk[i] = geom.Pt(x, y)
	}
	out = append(out, walk)
	line := make([]geom.Point, 150)
	for i := range line {
		line[i] = geom.Pt(float64(i)*1.3, 0)
	}
	out = append(out, line)
	dup := make([]geom.Point, 120)
	for i := range dup {
		dup[i] = geom.Pt(float64(i%9), float64(i%6))
	}
	out = append(out, dup)
	return out
}

// The grid-accelerated ℓ* must equal the dense-Prim ℓ* exactly — not within
// a tolerance: the value feeds request hashes. The bottleneck weight of the
// float edge graph is algorithm-independent, and both passes evaluate the
// same bitwise-symmetric Dist calls, so any inequality here is a bug.
func TestConnectivityThresholdGridMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range gridOracleMetrics(t) {
		for trial, pts := range bottleneckInstances(rng) {
			src := geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
			got := ConnectivityThresholdIn(m, src, pts)
			want := ConnectivityThresholdDenseIn(m, src, pts)
			if got != want {
				t.Errorf("%s instance %d (n=%d): grid ℓ* = %x, dense ℓ* = %x",
					m.Name(), trial, len(pts), got, want)
			}
		}
	}
}

// Fuzz the grid pass on random instance sizes and scales; every value must
// match the dense oracle bit for bit.
func TestConnectivityThresholdGridFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	metrics := gridOracleMetrics(t)
	for i := 0; i < 120; i++ {
		m := metrics[i%len(metrics)]
		n := denseBottleneckCutoff + rng.Intn(150)
		scale := math.Pow(10, float64(rng.Intn(6)-2))
		pts := make([]geom.Point, n)
		for j := range pts {
			pts[j] = geom.Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)
		}
		if rng.Intn(2) == 0 {
			pts[n-1] = geom.Pt(scale*100, scale*100) // far outlier: ℓ* is its edge
		}
		got := ConnectivityThresholdIn(m, geom.Origin, pts)
		want := ConnectivityThresholdDenseIn(m, geom.Origin, pts)
		if got != want {
			t.Fatalf("%s n=%d scale=%g: grid ℓ* = %x, dense ℓ* = %x", m.Name(), n, scale, got, want)
		}
	}
}

// ComputeParamsIn shares one vertex slice across the derivation; its ℓ* and
// ρ* must equal the independent derivations exactly, since they feed
// request hashes. Its ξ is checked against the dense oracle in
// TestXiMatchesDenseOracle.
func TestComputeParamsSharedDerivationExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, m := range gridOracleMetrics(t) {
		for trial, pts := range bottleneckInstances(rng) {
			src := geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2)
			p := ComputeParamsIn(m, src, pts)
			if want := ConnectivityThresholdDenseIn(m, src, pts); p.Ell != want {
				t.Errorf("%s instance %d: shared Ell = %x, dense = %x", m.Name(), trial, p.Ell, want)
			}
			if want := geom.MaxDistFromIn(m, src, pts); p.Rho != want {
				t.Errorf("%s instance %d: shared Rho = %x, dense = %x", m.Name(), trial, p.Rho, want)
			}
			if p.N != len(pts) {
				t.Errorf("%s instance %d: N = %d, want %d", m.Name(), trial, p.N, len(pts))
			}
		}
	}
}

// ballGraph is the test oracle's δ-ball graph over pts, built with no grid:
// every vertex pair is joined by the spatial grid's own predicate — squared
// ℓ2 distance within (δ+Eps)² under ℓ2, geom.WithinIn otherwise.
func ballGraph(m geom.Metric, pts []geom.Point, delta float64) [][]int {
	m = geom.MetricOrL2(m)
	r2 := (delta + geom.Eps) * (delta + geom.Eps)
	adj := make([][]int, len(pts))
	for i, p := range pts {
		for j, q := range pts {
			if j == i {
				continue
			}
			if geom.IsL2(m) && q.Dist2(p) <= r2 || !geom.IsL2(m) && geom.WithinIn(m, q, p, delta) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// denseXi is the test oracle for ξ: Dijkstra from pts[0] over ballGraph,
// selecting each next vertex by a linear scan instead of a heap. Returns
// +Inf when the graph is disconnected.
func denseXi(m geom.Metric, pts []geom.Point, delta float64) float64 {
	m = geom.MetricOrL2(m)
	adj := ballGraph(m, pts, delta)
	dist := make([]float64, len(pts))
	done := make([]bool, len(pts))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[0] = 0
	for {
		v := -1
		for i, d := range dist {
			if !done[i] && !math.IsInf(d, 1) && (v < 0 || d < dist[v]) {
				v = i
			}
		}
		if v < 0 {
			break
		}
		done[v] = true
		for _, j := range adj[v] {
			if nd := dist[v] + m.Dist(pts[v], pts[j]); nd < dist[j] {
				dist[j] = nd
			}
		}
	}
	var xi float64
	for _, d := range dist {
		if d > xi {
			xi = d
		}
	}
	return xi
}

// hopDists is the unweighted BFS over ballGraph: hop counts from pts[0],
// -1 for unreachable vertices.
func hopDists(m geom.Metric, pts []geom.Point, delta float64) []int {
	adj := ballGraph(m, pts, delta)
	hops := make([]int, len(pts))
	for i := range hops {
		hops[i] = -1
	}
	hops[0] = 0
	for queue := []int{0}; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, j := range adj[v] {
			if hops[j] == -1 {
				hops[j] = hops[v] + 1
				queue = append(queue, j)
			}
		}
	}
	return hops
}

// lattices are tie-heavy point sets for the ξ oracle: square lattices of
// two pitches and a triangular one, each containing the origin source, so
// many vertex pairs sit exactly ℓ* apart and many shortest paths tie.
func lattices() [][]geom.Point {
	var out [][]geom.Point
	for _, step := range []float64{1, 0.7} {
		var sq []geom.Point
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				if i != 0 || j != 0 {
					sq = append(sq, geom.Pt(float64(i)*step, float64(j)*step))
				}
			}
		}
		out = append(out, sq)
	}
	var tri []geom.Point
	for j := 0; j < 10; j++ {
		for i := 0; i < 12; i++ {
			if i != 0 || j != 0 {
				tri = append(tri, geom.Pt(float64(i)+0.5*float64(j%2), float64(j)*math.Sqrt(3)/2))
			}
		}
	}
	return append(out, tri)
}

// ξ from XiAtIn and ComputeParamsIn must equal the dense oracle bit for
// bit — at δ = ℓ*, above it, and below it, where the graph is disconnected
// and ξ is +Inf.
func TestXiMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	type xiCase struct {
		src geom.Point
		pts []geom.Point
	}
	var cases []xiCase
	for _, pts := range bottleneckInstances(rng) {
		cases = append(cases, xiCase{geom.Pt(rng.Float64()*4-2, rng.Float64()*4-2), pts})
	}
	for _, pts := range lattices() {
		cases = append(cases, xiCase{geom.Origin, pts})
	}
	for _, m := range gridOracleMetrics(t) {
		for i, c := range cases {
			verts := vertices(c.src, c.pts)
			p := ComputeParamsIn(m, c.src, c.pts)
			if want := denseXi(m, verts, p.Ell); p.Xi != want {
				t.Errorf("%s case %d (n=%d): ComputeParamsIn ξ = %x, oracle = %x", m.Name(), i, len(c.pts), p.Xi, want)
			}
			for _, delta := range []float64{p.Ell, 1.5 * p.Ell, p.Ell / 2} {
				want := denseXi(m, verts, delta)
				if got := XiAtIn(m, c.src, c.pts, delta); got != want {
					t.Errorf("%s case %d (n=%d) δ=%g: XiAtIn = %x, oracle = %x", m.Name(), i, len(c.pts), delta, got, want)
				}
				if delta < p.Ell && p.Ell > 1e-6 && !math.IsInf(want, 1) {
					t.Errorf("%s case %d: oracle ξ below ℓ* = %v, want +Inf", m.Name(), i, want)
				}
			}
		}
	}
}

// Coincident and degenerate inputs must keep the dense pass's exact
// behavior through the dispatch.
func TestConnectivityThresholdGridDegenerate(t *testing.T) {
	same := make([]geom.Point, 200)
	for i := range same {
		same[i] = geom.Pt(2, 3)
	}
	if got := ConnectivityThresholdIn(nil, geom.Pt(2, 3), same); got != 0 {
		t.Errorf("coincident ℓ* = %v, want 0", got)
	}
	// A coincident cloud with one far point: ℓ* is exactly that edge.
	pts := append(append([]geom.Point(nil), same...), geom.Pt(102, 3))
	got := ConnectivityThresholdIn(nil, geom.Pt(2, 3), pts)
	if want := ConnectivityThresholdDenseIn(nil, geom.Pt(2, 3), pts); got != want {
		t.Errorf("cloud+outlier ℓ* = %x, dense = %x", got, want)
	}
	nan := make([]geom.Point, 150)
	for i := range nan {
		nan[i] = geom.Pt(float64(i), 0)
	}
	nan[75] = geom.Pt(math.NaN(), 0)
	gotNaN := ConnectivityThresholdIn(nil, geom.Origin, nan)
	wantNaN := ConnectivityThresholdDenseIn(nil, geom.Origin, nan)
	if gotNaN != wantNaN && !(math.IsNaN(gotNaN) && math.IsNaN(wantNaN)) {
		t.Errorf("NaN input ℓ* = %v, dense = %v", gotNaN, wantNaN)
	}
}

// A finite-but-subnormal coordinate spread underflows the grid cell size;
// the dispatch must fall back to the dense pass instead of building a
// degenerate lattice (int32 overflow on some platforms).
func TestConnectivityThresholdSubnormalExtent(t *testing.T) {
	pts := make([]geom.Point, 150)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*5e-324, 0)
	}
	got := ConnectivityThresholdIn(nil, geom.Origin, pts)
	want := ConnectivityThresholdDenseIn(nil, geom.Origin, pts)
	if got != want {
		t.Fatalf("subnormal extent ℓ* = %x, dense = %x", got, want)
	}
}
