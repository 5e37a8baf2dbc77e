package geom

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Metric is a pluggable distance on the plane. Every implementation is a
// norm-induced metric (translation-invariant and absolutely homogeneous), so
// straight segments are geodesics and the point a fraction t of the metric
// length along a segment is the ordinary Lerp — which is what lets the
// simulator keep straight-line motion and budget-truncated moves unchanged
// across metrics.
//
// Implementations must additionally dominate the Chebyshev distance:
//
//	Dist(p, q) ≥ max(|p.X−q.X|, |p.Y−q.Y|)
//
// for all p, q. Every ℓp metric with p ≥ 1 satisfies this; the invariant is
// what lets spatial.Grid bound a metric ball query by a square of cells and
// keep its ring-expansion nearest-neighbor search correct.
//
// A function that measures under a metric takes it as its first argument,
// and a nil metric means ℓ2, the paper's Euclidean plane: MetricOrL2 is the
// one place that default is spelled, so no function has an ℓ2 twin.
type Metric interface {
	// Name is the canonical CLI/wire spelling — "l1", "l2", "linf", or
	// "lp:<p>" — and is part of the content-addressed request hash for every
	// non-ℓ2 metric, so it must be stable.
	Name() string
	// Dist returns the distance between p and q.
	Dist(p, q Point) float64
	// Norm returns the distance from the origin to v, i.e. the norm of v.
	Norm(v Point) float64
	// InscribedSquare returns the side length of the largest axis-aligned
	// square inscribed in the unit ball (2^(1−1/p) for ℓp): the snapshot
	// pitch at which a lattice of radius-1 Looks covers the plane, used by
	// the exploration sweeps.
	InscribedSquare() float64
	// Stretch returns sup_{v≠0} Norm(v)/‖v‖₂, the worst-case inflation of a
	// Euclidean length under this metric (2^(1/p−1/2) for p < 2, else 1).
	// Travel-time budgets calibrated against ℓ2 stay valid when multiplied
	// by it.
	Stretch() float64
}

// The built-in metrics. L2 is the Euclidean plane the paper works in and the
// default everywhere a Metric is optional.
var (
	L1   Metric = l1Metric{}
	L2   Metric = l2Metric{}
	LInf Metric = linfMetric{}
)

// MetricOrL2 returns m, defaulting a nil metric to L2. Every layer that
// stores an optional Metric normalizes through it.
func MetricOrL2(m Metric) Metric {
	if m == nil {
		return L2
	}
	return m
}

// IsL2 reports whether m is (or defaults to) the Euclidean metric — the case
// where canonical request hashes must stay byte-identical to the pre-metric
// encoding.
func IsL2(m Metric) bool { return MetricOrL2(m).Name() == "l2" }

type l2Metric struct{}

func (l2Metric) Name() string             { return "l2" }
func (l2Metric) Dist(p, q Point) float64  { return p.Dist(q) }
func (l2Metric) Norm(v Point) float64     { return v.Norm() }
func (l2Metric) InscribedSquare() float64 { return math.Sqrt2 }
func (l2Metric) Stretch() float64         { return 1 }

type l1Metric struct{}

func (l1Metric) Name() string             { return "l1" }
func (l1Metric) Dist(p, q Point) float64  { return p.DistL1(q) }
func (l1Metric) Norm(v Point) float64     { return math.Abs(v.X) + math.Abs(v.Y) }
func (l1Metric) InscribedSquare() float64 { return 1 }
func (l1Metric) Stretch() float64         { return math.Sqrt2 }

type linfMetric struct{}

func (linfMetric) Name() string { return "linf" }
func (linfMetric) Dist(p, q Point) float64 {
	return math.Max(math.Abs(p.X-q.X), math.Abs(p.Y-q.Y))
}
func (linfMetric) Norm(v Point) float64     { return math.Max(math.Abs(v.X), math.Abs(v.Y)) }
func (linfMetric) InscribedSquare() float64 { return 2 }
func (linfMetric) Stretch() float64         { return 1 }

// UnitBallArea returns the area of m's unit ball — 2 for ℓ1, π for ℓ2, 4
// for ℓ∞, and 4·Γ(1+1/p)²/Γ(1+2/p) for general ℓp (nil defaults to ℓ2).
// It is the constant in the metric generalization of the Theorem 3 energy
// threshold: sweeping the radius-ℓ ball minus the freebie radius-1 look
// costs area/2, so the ℓ2 bound π(ℓ²−1)/2 becomes A·(ℓ²−1)/2. Unknown
// Metric implementations are integrated numerically in polar form
// (½∮ r(θ)² dθ with r(θ) = 1/Norm(cos θ, sin θ)), which is exact to
// quadrature error for any norm ball.
func UnitBallArea(m Metric) float64 {
	switch mm := MetricOrL2(m).(type) {
	case l1Metric:
		return 2
	case l2Metric:
		return math.Pi
	case linfMetric:
		return 4
	case lpMetric:
		g := math.Gamma(1 + mm.invP)
		return 4 * g * g / math.Gamma(1+2*mm.invP)
	}
	const steps = 1 << 16
	sum := 0.0
	for i := 0; i < steps; i++ {
		theta := (float64(i) + 0.5) * (2 * math.Pi / steps)
		r := 1 / m.Norm(Pt(math.Cos(theta), math.Sin(theta)))
		sum += r * r
	}
	return sum * math.Pi / steps
}

// CircumradiusL2 returns the ℓ2 circumradius of m's unit ball,
// sup{‖v‖₂ : m.Norm(v) ≤ 1} — 1 for every ℓp with p ≤ 2 (their balls fit
// the Euclidean disk), 2^(1/2−1/p) for p > 2, √2 for ℓ∞ (the corners).
// A sweep calibrated to Euclidean radius r covers the metric ball
// B_m(c, r) only when extended to radius r·CircumradiusL2 (nil defaults
// to ℓ2). Unknown Metric implementations are maximized numerically over
// sampled directions with a one-step safety factor.
func CircumradiusL2(m Metric) float64 {
	switch mm := MetricOrL2(m).(type) {
	case l1Metric, l2Metric:
		return 1
	case linfMetric:
		return math.Sqrt2
	case lpMetric:
		if mm.p <= 2 {
			return 1
		}
		return math.Exp2(0.5 - mm.invP)
	}
	const steps = 1 << 12
	best := 0.0
	for i := 0; i < steps; i++ {
		theta := (float64(i) + 0.5) * (2 * math.Pi / steps)
		if r := 1 / m.Norm(Pt(math.Cos(theta), math.Sin(theta))); r > best {
			best = r
		}
	}
	// Sampling can only undershoot the true maximum; pad by one step's
	// worth of curvature so callers' coverage arguments stay conservative.
	return best * (1 + math.Pi/steps)
}

// lpMetric is the general ℓp metric for finite p ≥ 1. The canonical cases
// p = 1, 2 and p = +Inf are always represented by L1/L2/LInf (Lp normalizes
// them), so an lpMetric value is never one of those.
//
// invP caches 1/p (the same value the formula previously recomputed per
// call) and ip caches p as an int when p is integral, unlocking the
// pow-free inner power below. Both are derived from p alone, so two
// lpMetric values built from the same exponent stay comparable.
type lpMetric struct {
	p    float64
	invP float64
	ip   int // p when integral and small, else 0
}

// maxIntExponent bounds the integer exponents the repeated-multiplication
// fast path covers; larger integral p falls back to math.Pow (where the
// squaring loop no longer wins anything).
const maxIntExponent = 64

// newLpMetric builds the metric for a finite non-canonical exponent p > 1.
func newLpMetric(p float64) lpMetric {
	m := lpMetric{p: p, invP: 1 / p}
	if i, frac := math.Modf(p); frac == 0 && i <= maxIntExponent {
		m.ip = int(i)
	}
	return m
}

func (m lpMetric) Name() string {
	return "lp:" + strconv.FormatFloat(m.p, 'g', -1, 64)
}

func (m lpMetric) Dist(p, q Point) float64 { return m.Norm(p.Sub(q)) }

func (m lpMetric) Norm(v Point) float64 {
	ax, ay := math.Abs(v.X), math.Abs(v.Y)
	// Factor out the larger component so intermediate powers can neither
	// overflow nor underflow for representable inputs.
	hi := math.Max(ax, ay)
	if hi == 0 {
		return 0
	}
	lo := math.Min(ax, ay)
	t := lo / hi
	var tp float64
	switch {
	case m.ip != 0 && t >= mulSafe:
		tp = mulPow(t, m.ip)
	case m.ip != 0:
		tp = ipow(t, m.ip)
	default:
		tp = math.Pow(t, m.p)
	}
	if tp == 0 || 1+tp == 1 {
		// math.Pow(1, y) is exactly 1, so the remaining factor drops out.
		return hi
	}
	return hi * powFrac(1+tp, m.invP)
}

// mulSafe is the ratio floor below which the plain multiply-and-square loop
// could push an intermediate into the subnormal range (t**128 for the
// deepest square of a ≤ 64 exponent reaches 2^-896 at t = 2^-7) and drift
// from math.Pow's normalized-mantissa rounding; below it the Frexp-faithful
// ipow takes over.
const mulSafe = 0x1p-7

// mulPow is x**n by plain multiply-and-square in the same bit order as
// math.Pow's integral-exponent loop. For x ∈ [mulSafe, 1] and n ≤
// maxIntExponent every intermediate stays normal, where scaling by powers
// of two is exact and each product therefore rounds identically to Pow's
// Frexp-normalized form — bit-identical, without the Frexp/Ldexp overhead.
func mulPow(x float64, n int) float64 {
	a := 1.0
	for ; n != 0; n >>= 1 {
		if n&1 == 1 {
			a *= x
		}
		x *= x
	}
	return a
}

// powFrac replicates math.Pow(x, y) bit for bit on the norm's residual
// domain — finite x ∈ (1, 2], fractional y ∈ (0, 1), y ≠ ½ — without Pow's
// special-case dispatch: on that domain Pow computes exactly Exp(y·Log(x)),
// with one extra multiply by x when y > ½ (Pow's yf-overflow adjustment
// folds the integer part back in via its squaring loop, which for yi = 1
// reduces to a single product). NaN flows through both branches the way it
// flows through Pow. Guarded against the live math.Pow by the bit-identity
// fuzz in metric_test.go.
func powFrac(x, y float64) float64 {
	if y > 0.5 {
		return math.Exp((y-1)*math.Log(x)) * x
	}
	return math.Exp(y * math.Log(x))
}

// ipow returns x**n for 0 ≤ x ≤ 1 and 1 ≤ n ≤ maxIntExponent, bit-identical
// to math.Pow(x, float64(n)): it replays Pow's integral-exponent branch —
// repeated squaring over the Frexp-normalized mantissa with the exponent
// tracked separately and a single Ldexp at the end — so every intermediate
// rounding (including the subnormal double-rounding at the final scaling)
// matches Pow's. A plain x*x*…*x would drift from Pow once x**k dips into
// the subnormal range mid-product; this never does.
func ipow(x float64, n int) float64 {
	a1 := 1.0
	ae := 0
	x1, xe := math.Frexp(x)
	for i := n; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// Catastrophic underflow/overflow of the running exponent:
			// mirror Pow's bail-out (the result rounds to 0 or Inf anyway).
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}

func (m lpMetric) InscribedSquare() float64 { return math.Exp2(1 - 1/m.p) }

func (m lpMetric) Stretch() float64 {
	if m.p >= 2 {
		return 1
	}
	return math.Exp2(1/m.p - 0.5)
}

// Lp returns the ℓp metric. p = 1, 2 and +Inf normalize to L1, L2, LInf (so
// lp:2 and l2 are the same metric with the same Name and therefore the same
// request hash). Degenerate exponents — NaN, p < 1 (not a metric: the
// triangle inequality fails), or anything non-positive — are rejected.
func Lp(p float64) (Metric, error) {
	switch {
	case math.IsNaN(p):
		return nil, fmt.Errorf("geom: lp metric exponent must be a number, got NaN")
	case p < 1:
		return nil, fmt.Errorf("geom: lp metric needs exponent ≥ 1, got %g (the triangle inequality fails below 1)", p)
	case p == 1:
		return L1, nil
	case p == 2:
		return L2, nil
	case math.IsInf(p, 1):
		return LInf, nil
	}
	return newLpMetric(p), nil
}

// MetricNames lists the accepted ParseMetric spellings for usage messages.
func MetricNames() string { return "l1, l2, linf, lp:<p≥1>" }

// ParseMetric resolves the CLI/wire spelling of a metric. The empty string
// defaults to ℓ2. Unknown names and degenerate ℓp exponents (lp:0, lp:NaN,
// lp:0.5, …) are errors, never silently defaulted.
func ParseMetric(s string) (Metric, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	switch name {
	case "", "l2", "euclidean":
		return L2, nil
	case "l1", "manhattan":
		return L1, nil
	case "linf", "chebyshev":
		return LInf, nil
	}
	if rest, ok := strings.CutPrefix(name, "lp:"); ok {
		p, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("geom: bad lp exponent %q (want lp:<p≥1>)", rest)
		}
		return Lp(p)
	}
	return nil, fmt.Errorf("geom: unknown metric %q (have %s)", s, MetricNames())
}

// WithinIn reports whether p is within metric distance d of q, with Eps
// slack — the metric generalization of Point.Within. Every layer that
// decides visibility or coverage under a metric (spatial index, explorer,
// sampler) must go through it so the closed-ball-with-Eps convention can
// never desynchronize between them.
func WithinIn(m Metric, p, q Point, d float64) bool {
	return MetricOrL2(m).Dist(p, q) <= d+Eps
}

// MoveToward returns the point at metric distance d from `from` along the
// straight segment toward `to`, clamping at `to`. Straight segments are
// geodesics of every norm metric, so this is unit-speed motion along a
// metric geodesic; it is how the simulator places a robot whose energy
// budget runs out mid-move.
func MoveToward(m Metric, from, to Point, d float64) Point {
	total := MetricOrL2(m).Dist(from, to)
	if d <= 0 || total <= Eps {
		return from
	}
	if d >= total {
		return to
	}
	return from.Lerp(to, d/total)
}

// PathLengthIn returns the total metric length of the polyline through pts.
func PathLengthIn(m Metric, pts []Point) float64 {
	m = MetricOrL2(m)
	var total float64
	for i := 1; i < len(pts); i++ {
		total += m.Dist(pts[i-1], pts[i])
	}
	return total
}

// MaxDistFromIn returns the largest metric distance from o to any point of
// pts — the radius ρ* under m when o is the source. Empty input yields 0.
func MaxDistFromIn(m Metric, o Point, pts []Point) float64 {
	m = MetricOrL2(m)
	var r float64
	for _, p := range pts {
		if d := m.Dist(o, p); d > r {
			r = d
		}
	}
	return r
}
