package geom

// DistBatch sets out[i] = m.Dist(p, pts[i]) for every i. It is the plain
// per-point loop every scan in this module runs inline; no scan calls it.
// It stays as an exported entry point because the benchmark module times
// distance evaluation through it. out must have at least len(pts)
// elements; the same backing array may be reused across calls. A nil
// metric defaults to ℓ2.
func DistBatch(m Metric, p Point, pts []Point, out []float64) {
	if len(pts) == 0 {
		return
	}
	out = out[:len(pts)]
	m = MetricOrL2(m)
	for i, q := range pts {
		out[i] = m.Dist(p, q)
	}
}
