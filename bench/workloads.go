package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"freezetag/internal/dftp"
	"freezetag/internal/instance"
	"freezetag/internal/rngstream"
	"freezetag/internal/service"
)

const (
	solvePath     = "/v1/solve"
	portfolioPath = "/v1/portfolio"
)

// request is one HTTP request of a workload: the endpoint, the JSON body,
// and a description that names it in error messages.
type request struct {
	path string
	body []byte
	desc string
}

// plan is a workload's generated input: the distinct requests and the
// warm-up and measured sequences as indices into reqs. It is a function of
// the seed and the two counts alone.
type plan struct {
	reqs []request
	warm []int32
	meas []int32
}

// Streams under the run seed. Each sequence draws from its own stream, so
// the measured sequence does not depend on the warm-up length, and a
// different -seed gives a disjoint set of fresh instance seeds.
const (
	streamKeys = iota
	streamWarm
	streamMeas
)

// workload is one traffic mix. Counts are per run at -scale 1.
type workload struct {
	name string
	// rate is the request rate the mix reaches on the reference box (2
	// cores); the measured phase sends rate × -seconds requests, so it lasts
	// about -seconds there and every commit does identical work.
	rate float64
	// warm is the warm-up request count.
	warm int
	// traced is how many measured requests the traced run replays.
	traced int
	build  func(seed int64, warm, meas int) plan
}

var workloads = []*workload{
	// Warm-up counts are whole blocks of each mix's deck after its lead
	// requests, so every seed's set-up does the same mix of work.
	{name: "hot-family", rate: 28000, warm: 40 + 196*10, traced: 200, build: hotFamily},
	{name: "cold-family", rate: 230, warm: 15 * 7, traced: 120, build: coldFamily},
	{name: "race", rate: 90, warm: 3 * 8, traced: 60, build: raceMix},
	{name: "inline-repeat", rate: 160, warm: 8 + 2*10, traced: 30, build: inlineRepeat},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// counts scales a workload's request counts. The measured phase keeps at
// least one request and the traced replay at least five, so tiny scales
// still exercise every layer.
func (w *workload) counts(seconds, scale float64) (warm, meas, traced int) {
	warm = max(1, int(math.Round(float64(w.warm)*scale)))
	meas = max(1, int(math.Round(w.rate*seconds*scale)))
	traced = min(meas, max(5, int(math.Round(float64(w.traced)*scale))))
	return warm, meas, traced
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types hold no values json rejects
	}
	return b
}

func solve(sr service.SolveRequest) request {
	desc := fmt.Sprintf("%s %s-%d seed=%d", sr.Algorithm, sr.Family, sr.N, sr.Seed)
	if sr.Instance != nil {
		desc = fmt.Sprintf("%s inline %s", sr.Algorithm, sr.Instance.Name)
	}
	if sr.Metric != "" {
		desc += " " + sr.Metric
	}
	if sr.Faults != nil {
		desc += " faults=" + sr.Faults.Canon()
	}
	return request{path: solvePath, body: mustJSON(sr), desc: desc}
}

func race(pr service.PortfolioRequest) request {
	desc := fmt.Sprintf("race %v %s %s-%d seed=%d", pr.Algorithms, pr.Objective, pr.Family, pr.N, pr.Seed)
	return request{path: portfolioPath, body: mustJSON(pr), desc: desc}
}

// deck deals class indices in shuffled blocks that hold each class exactly
// its weight times. Every sequence then carries the mix's shares exactly,
// and seeds differ only in the order and in the instances drawn.
func deck(r *rand.Rand, weights []int) func() int {
	var block []int
	for class, w := range weights {
		for range w {
			block = append(block, class)
		}
	}
	next := len(block)
	return func() int {
		if next == len(block) {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			next = 0
		}
		next++
		return block[next-1]
	}
}

// sequence prepends the first min(n, len(lead)) of lead to n-len(lead)
// draws of next.
func sequence(n int, lead []int32, next func() int32) []int32 {
	seq := make([]int32, 0, n)
	for _, i := range lead {
		if len(seq) == n {
			return seq
		}
		seq = append(seq, i)
	}
	for len(seq) < n {
		seq = append(seq, next())
	}
	return seq
}

func indices(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// hotFamily is 40 family requests drawn again and again: after the
// warm-up every request is a cache hit, so it exercises HTTP decode, the
// shape memo, the LRU and Server-Timing, and no simulation.
func hotFamily(seed int64, warm, meas int) plan {
	keys := rngstream.New(seed, streamKeys)
	var p plan
	type group struct{ first, count int }
	var groups []group
	var weights []int
	add := func(weight, count int, mk func(seed int64) request) {
		groups = append(groups, group{len(p.reqs), count})
		weights = append(weights, weight)
		for range count {
			p.reqs = append(p.reqs, mk(keys.Int63()))
		}
	}
	add(6, 16, func(s int64) request {
		return solve(service.SolveRequest{Algorithm: "agrid", Family: "walk", N: 32, Param: 0.9, Seed: s})
	})
	add(2, 8, func(s int64) request {
		return solve(service.SolveRequest{Algorithm: "aseparator", Metric: "l1", Family: "walk", N: 32, Param: 0.9, Seed: s})
	})
	add(1, 8, func(s int64) request {
		return race(service.PortfolioRequest{Algorithms: []string{"agrid", "aseparator", "awave"},
			Objective: "first-under-budget:makespan=1e9", Family: "walk", N: 24, Param: 0.9, Seed: s})
	})
	add(1, 8, func(s int64) request {
		return solve(service.SolveRequest{Algorithm: "agrid", Family: "walk+speedband:0.5", N: 32, Param: 0.9, Seed: s})
	})
	draw := func(r *rand.Rand) func() int32 {
		class := deck(r, weights)
		return func() int32 {
			g := groups[class()]
			return int32(g.first + r.Intn(g.count))
		}
	}
	p.warm = sequence(warm, indices(len(p.reqs)), draw(rngstream.New(seed, streamWarm)))
	p.meas = sequence(meas, nil, draw(rngstream.New(seed, streamMeas)))
	return p
}

// coldFamily sends every request with a fresh instance seed, so each one
// generates an instance, derives ℓ*/ρ*/ξ, hashes, simulates, marshals and
// fills the cache. One in seven runs under crash-stop faults with repair,
// the only load on the wake-tree repair layer.
func coldFamily(seed int64, warm, meas int) plan {
	var p plan
	mix := func(r *rand.Rand) func() int32 {
		class := deck(r, []int{3, 2, 1, 1})
		return func() int32 {
			s := r.Int63()
			var q request
			switch class() {
			case 0:
				q = solve(service.SolveRequest{Algorithm: "agrid", Family: "walk", N: 32, Param: 0.9, Seed: s})
			case 1:
				q = solve(service.SolveRequest{Algorithm: "aseparator", Metric: "l1", Family: "disk", N: 64, Param: 1, Seed: s})
			case 2:
				// The grid family ignores its seed, so a fresh spacing keeps
				// every request a miss.
				q = solve(service.SolveRequest{Algorithm: "aseparatorauto", Family: "grid", N: 36, Param: 0.5 + r.Float64(), Seed: s})
			default:
				q = solve(service.SolveRequest{Algorithm: "agrid", Family: "disk", N: 60, Param: 1.2, Seed: s,
					Faults: &dftp.Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42, Repair: true}})
			}
			p.reqs = append(p.reqs, q)
			return int32(len(p.reqs) - 1)
		}
	}
	p.warm = sequence(warm, nil, mix(rngstream.New(seed, streamWarm)))
	p.meas = sequence(meas, nil, mix(rngstream.New(seed, streamMeas)))
	return p
}

// raceMix is min-makespan portfolio races on fresh walk instances. Every
// eighth race, the first included, has AWave as an entrant (a single AWave
// solve costs ~100× an AGrid one), so loser work dominates those and
// per-racer engine builds dominate the rest.
func raceMix(seed int64, warm, meas int) plan {
	var p plan
	mix := func(r *rand.Rand) func() int32 {
		k := 0
		return func() int32 {
			q := service.PortfolioRequest{Algorithms: []string{"agrid", "aseparator", "aseparatorauto"},
				Objective: "min-makespan", Family: "walk", N: 24 + 8*r.Intn(2), Param: 0.9, Seed: r.Int63()}
			if k%8 == 0 {
				q.Algorithms[2], q.N = "awave", 24
			}
			k++
			p.reqs = append(p.reqs, race(q))
			return int32(len(p.reqs) - 1)
		}
	}
	p.warm = sequence(warm, nil, mix(rngstream.New(seed, streamWarm)))
	p.meas = sequence(meas, nil, mix(rngstream.New(seed, streamMeas)))
	return p
}

// inlineRepeat sends inline 1024-robot instances (~49 KB of JSON each):
// nine in ten from a pool of eight, one in ten fresh. Inline requests skip
// both memos, so even a cache hit pays JSON decode, ℓ* derivation and point
// hashing, and the ~1.7 MB cache entries keep the LRU evicting.
func inlineRepeat(seed int64, warm, meas int) plan {
	const pool = 8
	keys := rngstream.New(seed, streamKeys)
	var p plan
	inline := func(s int64) request {
		in, err := instance.Family("disk", 1024, 1, s)
		if err != nil {
			panic(err) // fixed, valid family parameters
		}
		return solve(service.SolveRequest{Algorithm: "agrid", Instance: in})
	}
	for range pool {
		p.reqs = append(p.reqs, inline(keys.Int63()))
	}
	mix := func(r *rand.Rand) func() int32 {
		fresh := deck(r, []int{9, 1})
		return func() int32 {
			if fresh() == 0 {
				return int32(r.Intn(pool))
			}
			p.reqs = append(p.reqs, inline(r.Int63()))
			return int32(len(p.reqs) - 1)
		}
	}
	p.warm = sequence(warm, indices(pool), mix(rngstream.New(seed, streamWarm)))
	p.meas = sequence(meas, nil, mix(rngstream.New(seed, streamMeas)))
	return p
}
