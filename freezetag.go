// Package freezetag is the public API of the distributed Freeze Tag
// library, a reproduction of "Distributed Freeze Tag: a Sustainable Solution
// to Discover and Wake-up a Robot Swarm" (Gavoille, Hanusse, Le Bouder,
// Marcé — PODC 2025).
//
// The Freeze Tag Problem starts with one awake robot and a swarm of sleeping
// ones; waking requires co-location, and woken robots help. In the
// distributed setting reproduced here, positions are unknown, visibility is
// limited to distance 1, and robots communicate only face-to-face.
//
// Quickstart:
//
//	swarm := freezetag.RandomWalk(rand.New(rand.NewSource(1)), 40, 0.9)
//	tup := freezetag.TupleFor(swarm)                 // the (ℓ, ρ, n) knowledge
//	res, rep, err := freezetag.Solve(freezetag.AGrid, swarm, tup, 0)
//	// res.Makespan, res.MaxEnergy, res.AllAwake, rep.Rounds ...
//
// Four algorithms are available, mirroring the paper's Table 1 plus the §5
// extension:
//
//	ASeparator     makespan O(ρ + ℓ²log(ρ/ℓ)), unbounded energy   (Thm 1)
//	AGrid          energy O(ℓ²) (optimal), makespan O(ℓ·ξℓ)        (Thm 4)
//	AWave          energy O(ℓ²logℓ), makespan O(ξℓ + ℓ²log(ξℓ/ℓ))  (Thm 5)
//	ASeparatorAuto ASeparator needing only ℓ (estimates ρ, §5)
//
// Everything below is a thin facade over the implementation packages in
// internal/; see DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction results.
package freezetag

import (
	"context"
	"math/rand"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/portfolio"
	"freezetag/internal/sim"
)

// Point is a position in the plane.
type Point = geom.Point

// Pt builds a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Metric is a pluggable plane distance (any ℓp norm, p ≥ 1). Every distance
// in the model — travel time, energy, the radius-1 look, and the derived
// (ℓ, ρ) knowledge — is measured in it; wake-up-time bounds and algorithm
// behavior change qualitatively between ℓ1, ℓ2 and ℓ∞, which is exactly the
// experiment axis the *In variants below open. The default everywhere is ℓ2,
// the paper's setting.
type Metric = geom.Metric

// The built-in metrics: Manhattan, Euclidean, Chebyshev.
var (
	L1   Metric = geom.L1
	L2   Metric = geom.L2
	LInf Metric = geom.LInf
)

// Lp returns the general ℓp metric for p ≥ 1 (p = 1, 2, +Inf normalize to
// L1, L2, LInf). Degenerate exponents — NaN or p < 1 — are rejected.
func Lp(p float64) (Metric, error) { return geom.Lp(p) }

// ParseMetric resolves the CLI/wire spelling of a metric: "l1", "l2",
// "linf", or "lp:<p>"; the empty string means ℓ2. Unknown names and
// degenerate exponents (lp:0, lp:NaN) are errors, never silent defaults.
func ParseMetric(s string) (Metric, error) { return geom.ParseMetric(s) }

// Instance is a dFTP problem: a source position plus the initial positions
// of the sleeping robots. Instances marshal to/from JSON via Save and Load.
type Instance = instance.Instance

// NewInstance builds an instance from explicit positions.
func NewInstance(name string, source Point, sleepers []Point) *Instance {
	return &Instance{Name: name, Source: source, Points: sleepers}
}

// LoadInstance reads a JSON instance from a file.
func LoadInstance(path string) (*Instance, error) { return instance.Load(path) }

// Tuple is the (ℓ, ρ, n) knowledge handed to the source robot: an upper
// bound ℓ on the connectivity threshold, an upper bound ρ on the radius, and
// the swarm size n (never actually used by the algorithms, per §5).
type Tuple = dftp.Tuple

// TupleFor derives an admissible tuple from an instance's exact Euclidean
// parameters.
func TupleFor(in *Instance) Tuple { return dftp.TupleFor(in) }

// TupleForIn derives the admissible tuple under metric m: ℓ* and ρ* are
// metric-dependent, so the knowledge handed to the source must be measured
// in the metric the simulation runs in.
func TupleForIn(m Metric, in *Instance) Tuple { return dftp.TupleForIn(m, in) }

// Result summarizes a run: makespan, per-robot and total energy, completion.
type Result = sim.Result

// Report carries algorithm-level diagnostics (rounds, schedule misses).
type Report = dftp.Report

// Algorithm is one of the paper's dFTP algorithms.
type Algorithm = dftp.Algorithm

// The algorithms of the paper (see the package comment for their bounds).
var (
	ASeparator     Algorithm = dftp.ASeparator{}
	AGrid          Algorithm = dftp.AGrid{}
	AWave          Algorithm = dftp.AWave{}
	ASeparatorAuto Algorithm = dftp.ASeparatorAuto{}
)

// Solve runs alg on the instance with the given per-robot energy budget
// (≤ 0 means unconstrained) and returns the simulation result and report.
// Runs are deterministic: identical inputs give identical results.
func Solve(alg Algorithm, in *Instance, tup Tuple, budget float64) (Result, *Report, error) {
	return dftp.Solve(alg, in, tup, budget)
}

// SolveIn is Solve with every distance measured under metric m (nil means
// ℓ2): travel times, energy, and the radius-1 look. Pass a tuple measured in
// the same metric (TupleForIn).
func SolveIn(m Metric, alg Algorithm, in *Instance, tup Tuple, budget float64) (Result, *Report, error) {
	return dftp.SolveFaulted(context.Background(), nil, m, alg, in, tup, budget, nil, nil)
}

// Portfolio is the racing meta-algorithm: an ordered list of entrant
// algorithms plus an Objective. SolvePortfolio races the entrants
// concurrently on one instance and returns the best schedule; see
// internal/portfolio for the determinism contract (same portfolio, same
// instance ⇒ identical winner and stats at any worker count).
type Portfolio = portfolio.Portfolio

// Objective judges a portfolio race; build one with ParseObjective or use
// the types of internal/portfolio directly.
type Objective = portfolio.Objective

// PortfolioResult is the outcome of a race: the winner's full result plus
// deterministic per-racer stats.
type PortfolioResult = portfolio.Result

// ParseObjective builds an Objective from its CLI/wire spelling:
// "min-makespan", "min-energy", "weighted:0.7,0.3",
// "first-under-budget:makespan=120,energy=50". The empty string means
// min-makespan.
func ParseObjective(s string) (Objective, error) { return portfolio.ParseObjective(s) }

// SolvePortfolio races every algorithm of p concurrently on the instance
// with the given per-robot energy budget and returns the winner under p's
// objective. When a racer meets a first-under-budget target, every entrant
// behind it in portfolio order is cancelled mid-simulation; entrants ahead
// of it still run to completion (any of them may supersede it), so put the
// cheapest likely-satisfying algorithms first.
func SolvePortfolio(p Portfolio, in *Instance, tup Tuple, budget float64) (*PortfolioResult, error) {
	return portfolio.Race(p, in, tup, budget, portfolio.Options{})
}

// SolvePortfolioIn is SolvePortfolio with every racer simulating under
// metric m — the objectives thereby score makespan and energy in the
// instance's metric automatically.
func SolvePortfolioIn(m Metric, p Portfolio, in *Instance, tup Tuple, budget float64) (*PortfolioResult, error) {
	return portfolio.Race(p, in, tup, budget, portfolio.Options{Metric: m})
}

// HashRequest returns the content-addressed key of a solve request: the
// SHA-256 hex of a canonical encoding of (algorithm, instance, tuple,
// budget) with stable field order and normalized floats. Because Solve is
// deterministic, the key identifies the result as well as the request — it
// is the cache key of the solver service (cmd/dftp-serve) and the "hash"
// field of its responses. Budgets ≤ 0 all mean "unconstrained" and hash
// identically.
func HashRequest(alg Algorithm, in *Instance, tup Tuple, budget float64) string {
	return instance.HashRequest(alg.Name(), in, tup.Ell, tup.Rho, tup.N, budget)
}

// HashRequestIn is HashRequest under metric m. ℓ2 (or nil) produces the
// pre-metric encoding byte-for-byte — existing cache keys survive — while
// any other metric hashes under a bumped encoding version that includes the
// metric's canonical name.
func HashRequestIn(m Metric, alg Algorithm, in *Instance, tup Tuple, budget float64) string {
	return instance.HashRequestIn(m, alg.Name(), in, tup.Ell, tup.Rho, tup.N, budget)
}

// --- Instance generators -----------------------------------------------------

// Line places n robots on the x-axis with the given spacing — the canonical
// maximum-eccentricity family (ξℓ = ρ* = n·spacing).
func Line(n int, spacing float64) *Instance { return instance.Line(n, spacing) }

// RandomWalk generates n robots along a random walk from the source with
// steps in [step/2, step]; the swarm is step-connected by construction.
func RandomWalk(rng *rand.Rand, n int, step float64) *Instance {
	return instance.RandomWalk(rng, n, step)
}

// UniformDisk scatters n robots uniformly in a radius-r disk at the source.
func UniformDisk(rng *rand.Rand, n int, r float64) *Instance {
	return instance.UniformDisk(rng, n, r)
}

// GridSwarm builds a k×k robot grid with the given spacing.
func GridSwarm(k int, spacing float64) *Instance { return instance.GridSwarm(k, spacing) }

// ClusterChain strings `clusters` clusters of `per` robots along a line.
func ClusterChain(rng *rand.Rand, clusters, per int, sep, radius float64) *Instance {
	return instance.ClusterChain(rng, clusters, per, sep, radius)
}

// Family generates an instance from a named workload family ("line", "walk",
// "disk", "grid", "chain"), optionally with "+"-separated heterogeneity
// modifiers — "walk+speedband:0.5" draws per-robot speeds in [0.5, 1],
// "grid+capband:30" per-robot energy capacities in [15, 30] — without
// perturbing the base point set.
func Family(name string, n int, param float64, seed int64) (*Instance, error) {
	return instance.Family(name, n, param, seed)
}

// FamilyNames lists the workload families Family accepts.
func FamilyNames() []string { return instance.FamilyNames() }

// --- Heterogeneous robots ----------------------------------------------------

// Profile is one robot's capability profile: Speed scales travel time
// (distance δ takes time δ/Speed) and Capacity is a private energy budget
// (≤ 0 inherits the uniform budget). Attach one Profile per sleeping robot
// via Instance.Profiles; an empty Profiles slice is the homogeneous
// unit-speed model, byte-identical in hashing and results to instances that
// predate profiles.
type Profile = instance.Profile

// UniformProfiles returns n copies of one profile, the explicit spelling of
// a uniform swarm (hashes differently from no profiles at all — the request
// records what was asked).
func UniformProfiles(n int, p Profile) []Profile {
	ps := make([]Profile, n)
	for i := range ps {
		ps[i] = p
	}
	return ps
}

// Params are an instance's exact (ρ*, ℓ*, ξ) values.
type Params struct {
	Rho float64 // ρ*: swarm radius
	Ell float64 // ℓ*: connectivity threshold
	Xi  float64 // ξ: ℓ*-eccentricity of the source
	N   int
}

// ParamsOf computes the exact Euclidean parameters of an instance.
func ParamsOf(in *Instance) Params {
	p := in.Params()
	return Params{Rho: p.Rho, Ell: p.Ell, Xi: p.Xi, N: p.N}
}

// ParamsOfIn computes the exact parameters of an instance under metric m —
// the same point set generally has different (ρ*, ℓ*, ξ) per metric.
func ParamsOfIn(m Metric, in *Instance) Params {
	p := in.ParamsIn(m)
	return Params{Rho: p.Rho, Ell: p.Ell, Xi: p.Xi, N: p.N}
}
