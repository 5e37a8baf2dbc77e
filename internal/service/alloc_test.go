//go:build !race

// Allocation-regression gates for the serving hot paths. These are the CI
// teeth behind the per-job arena work: the cache-hit path must stay
// allocation-free apart from key scratch, and a steady-state solve — same
// request shape, distinct budget, so the whole resolve → simulate → marshal
// chain runs on the worker arena — must stay within a small fixed budget
// (the pre-arena figure was ~2600 allocs per solve), per algorithm. A served
// cold race must stay within a heap-byte budget.
//
// Excluded under -race: the race runtime instruments allocations and breaks
// AllocsPerRun and TotalAlloc accounting. CI runs this file in its own
// non-race "Allocation gates" step instead.
package service

import (
	"runtime"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

// TestAllocs_CacheHit gates the fully-warm path: request shape known, result
// cached. Everything — shape key, memo probe, cache probe — must run on
// stack or pooled storage; the only tolerated allocations are the key
// scratch spill and metrics bookkeeping.
func TestAllocs_CacheHit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	req := walkRequest(7)
	if _, err := s.Solve(req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sv, err := s.Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		if !sv.Hit {
			t.Fatal("expected a cache hit")
		}
	})
	if allocs > 5 {
		t.Fatalf("cache-hit path allocates %.1f allocs/op, budget is 5", allocs)
	}
}

// TestAllocs_SteadyStateSolve gates the arena path for every algorithm:
// each iteration is a real simulation (the budget changes, so neither cache
// nor memo can serve it), but the request shape repeats, so the worker
// arena's engine, spatial grid, wake-tree builder, and explore pools are
// all reused. Mirrors BenchmarkService_SolveSteadyState. AGrid's budget is
// 50 versus ~2600 pre-arena; the others carry what is not pooled yet
// (DFSampling's and the rounds' id lists, seed lists, each round's team
// list and per-round closures).
func TestAllocs_SteadyStateSolve(t *testing.T) {
	for _, tc := range []struct {
		alg    string
		budget float64
	}{
		{"agrid", 50},
		{"aseparator", 90},
		{"aseparatorauto", 140},
		{"awave", 100},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			s := newTestService(t, Config{Workers: 1, CacheBytes: 1, QueueDepth: 1})
			req := walkRequest(7)
			req.Algorithm = tc.alg
			// Warm the arena: first runs of a shape grow the slabs and pools.
			for i := 0; i < 3; i++ {
				req.Budget = 2e6 + float64(i)
				if _, err := s.Solve(req); err != nil {
					t.Fatal(err)
				}
			}
			budget := 1e6
			allocs := testing.AllocsPerRun(100, func() {
				budget++
				req.Budget = budget
				sv, err := s.Solve(req)
				if err != nil {
					t.Fatal(err)
				}
				if sv.Hit {
					t.Fatal("steady-state iteration unexpectedly served from cache")
				}
			})
			if allocs > tc.budget {
				t.Fatalf("steady-state %s solve allocates %.1f allocs/op, budget is %.0f", tc.alg, allocs, tc.budget)
			}
			t.Logf("%.0f allocs/op", allocs)
		})
	}
}

// TestAllocs_InlineResolve gates the resolve of an inline-instance
// request, which every such request pays, cache hits included: inline
// instances skip the params memo, so resolve derives the tuple's ℓ* and ρ*
// and hashes the points each time. The request is the benchmark's
// inline-repeat shape, AGrid on a 1024-robot disk under ℓ2. The tuple never
// derives ξ; when it did, through a stored δ-ball graph, resolve made
// ~8,700 allocations.
func TestAllocs_InlineResolve(t *testing.T) {
	in, err := instance.Family("disk", 1024, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Config{Workers: 1})
	req := SolveRequest{Algorithm: "agrid", Instance: in}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.resolve("agrid", geom.L2, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("inline resolve allocates %.1f allocs/op, budget is 100", allocs)
	}
	t.Logf("%.0f allocs/op", allocs)
}

// TestAllocs_PortfolioRaceBytes gates a served race's heap footprint: cold
// three-entrant races on fresh walk-24 instances, nothing cached, so every
// race builds its racers' engines and runs AWave's 256-wide wave squares.
// The budget is 1 MiB per race; a race measures about 0.6 MiB. Either of
// two byte sinks coming back breaks it: keeping every Look's sightings for
// the rest of the run, or materializing each sweep's stop lattice, cost
// about 2.6 MiB together, and a simulator grid that keeps an empty cell for
// every unit square a robot ever crossed costs about 10 MiB.
func TestAllocs_PortfolioRaceBytes(t *testing.T) {
	s := newTestService(t, Config{CacheBytes: 1})
	race := func(seed int64) {
		sv, err := s.SolvePortfolio(PortfolioRequest{
			Algorithms: []string{"agrid", "aseparator", "awave"},
			Family:     "walk", N: 24, Param: 0.9, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sv.Hit {
			t.Fatal("race unexpectedly served from cache")
		}
	}
	race(100) // keep one-time start-up allocations out of the measurement
	const races = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= races; seed++ {
		race(seed)
	}
	runtime.ReadMemStats(&after)
	perRace := float64(after.TotalAlloc-before.TotalAlloc) / races
	const budget = 1 << 20
	if perRace > budget {
		t.Fatalf("a served race allocates %.2f MiB, budget is %d MiB", perRace/(1<<20), budget>>20)
	}
	t.Logf("%.2f MiB per race", perRace/(1<<20))
}
