package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"freezetag/internal/dftp"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

func walkRequest(seed int64) SolveRequest {
	return SolveRequest{Algorithm: "agrid", Family: "walk", N: 24, Param: 0.9, Seed: seed}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// The acceptance criterion of the PR: serving the same request twice runs
// exactly one simulation, and the cached bytes are identical to the cold
// ones.
func TestSolveCacheByteIdentical(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})

	cold, err := s.Solve(walkRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hit {
		t.Fatal("first solve reported a cache hit")
	}
	warm, err := s.Solve(walkRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit {
		t.Fatal("second identical solve missed the cache")
	}
	if !bytes.Equal(cold.Body, warm.Body) {
		t.Fatalf("cached response differs from cold response:\n%s\nvs\n%s", cold.Body, warm.Body)
	}
	if warm.Hash != cold.Hash {
		t.Fatalf("hash changed between identical requests: %s vs %s", cold.Hash, warm.Hash)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("two identical requests ran %d simulations, want 1", got)
	}

	var resp SolveResponse
	if err := json.Unmarshal(cold.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Hash != cold.Hash || !resp.AllAwake || resp.Algorithm != "AGrid" || resp.N != 24 {
		t.Fatalf("implausible response: %+v", resp)
	}
}

// Concurrent identical requests must coalesce into one simulation
// (single-flight), all receiving identical bytes. Run with -race.
func TestConcurrentSingleFlight(t *testing.T) {
	s := newTestService(t, Config{Workers: 4})
	const goroutines = 32

	bodies := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			sv, err := s.Solve(walkRequest(2))
			bodies[i], errs[i] = sv.Body, err
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("goroutine %d got different bytes", i)
		}
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", goroutines, got)
	}
}

// Distinct concurrent requests all complete and are each simulated once.
func TestConcurrentDistinctRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 4, QueueDepth: 64})
	const distinct = 8

	var wg sync.WaitGroup
	errs := make([]error, distinct*4)
	wg.Add(len(errs))
	for i := range errs {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Solve(walkRequest(int64(i % distinct)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.Stats().Solves; got != distinct {
		t.Fatalf("ran %d simulations for %d distinct requests", got, distinct)
	}
}

// A full queue sheds load with ErrQueueFull instead of blocking.
func TestQueueSheds(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	doRelease := func() { releaseOnce.Do(func() { close(release) }) }
	started := make(chan struct{}, 64)
	s := New(Config{Workers: 1, QueueDepth: 1, preSolve: func() {
		started <- struct{}{}
		<-release
	}})
	defer func() {
		doRelease()
		s.Close()
	}()

	// Occupy the single worker and wait until it is inside the solve...
	go s.Solve(walkRequest(10))
	<-started
	// ...fill the one queue slot and wait until the slot is really taken...
	go s.Solve(walkRequest(11))
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...then the next distinct request must shed immediately.
	if _, err := s.Solve(walkRequest(12)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow request got %v, want ErrQueueFull", err)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Stats().Shed)
	}
	// After the backlog drains, the shed request succeeds (retry while the
	// queue is still emptying).
	doRelease()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := s.Solve(walkRequest(12))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) || time.Now().After(deadline) {
			t.Fatalf("post-drain solve: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Inline instances and family parameters that generate the same instance
// share one cache entry: the key is content, not request shape.
func TestInlineAndFamilyShareKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})

	gen, err := instance.Family("walk", 24, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	byFamily, err := s.Solve(walkRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	inline, err := s.Solve(SolveRequest{Algorithm: "agrid", Instance: gen})
	if err != nil {
		t.Fatal(err)
	}
	if !inline.Hit || inline.Hash != byFamily.Hash {
		t.Fatalf("inline equivalent missed the cache: hit=%v %s vs %s", inline.Hit, inline.Hash, byFamily.Hash)
	}
	if s.Stats().Solves != 1 {
		t.Fatalf("ran %d simulations", s.Stats().Solves)
	}
}

// Robots that share a position differ only by id, and the id alone breaks
// the tie between them, so fresh services answer an inline request of
// coincident pairs with the same bytes: every point of a seed-2, 20-step
// random walk held by two robots of different speeds.
func TestCoincidentRobotsByteIdentical(t *testing.T) {
	walk := instance.RandomWalk(rand.New(rand.NewSource(2)), 20, 0.9)
	in := &instance.Instance{Name: "walk-pairs-n40", Source: walk.Source}
	for _, p := range walk.Points {
		in.Points = append(in.Points, p, p)
	}
	for i := range in.Points {
		in.Profiles = append(in.Profiles, instance.Profile{Speed: 0.5 + float64(i%7)/7})
	}
	var want []byte
	for i := 0; i < 20; i++ {
		s := New(Config{Workers: 1})
		sv, err := s.Solve(SolveRequest{Algorithm: "aseparator", Instance: in})
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = sv.Body
		} else if !bytes.Equal(sv.Body, want) {
			t.Fatalf("service %d answered differently:\n got  %s\n want %s", i, sv.Body, want)
		}
	}
}

// badRequestDeadline bounds how long a refusal may take. Refusing is a
// validation pass, microseconds even for a large instance; a request that
// slips past validation into the solver would instead spin for minutes.
const badRequestDeadline = 2 * time.Second

// outOfRangeProbes are instances outside the model the paper's bounds are
// stated in, each with the robot its refusal must name: coordinates so
// large that ℓ*, ρ* or a grid cell index overflows.
var outOfRangeProbes = []struct {
	name string
	inst *instance.Instance
	want string
}{
	{"inline ±1e308", &instance.Instance{Name: "huge", Points: []geom.Point{
		geom.Pt(1e308, 0), geom.Pt(-1e308, 0), geom.Pt(0, 1e308), geom.Pt(0, -1e308)}},
		"robot 1 at (1e+308, 0)"},
	{"inline 1 and 1e308", &instance.Instance{Name: "far", Points: []geom.Point{
		geom.Pt(1, 0), geom.Pt(1e308, 0)}},
		"robot 2 at (1e+308, 0)"},
}

func TestBadRequests(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	type badCase struct {
		name string
		req  SolveRequest
		want string // a substring the error must carry, if any
	}
	cases := []badCase{
		{"unknown algorithm", SolveRequest{Algorithm: "dijkstra", Family: "walk", N: 8, Param: 1}, ""},
		{"no instance", SolveRequest{Algorithm: "agrid"}, ""},
		{"unknown family", SolveRequest{Algorithm: "agrid", Family: "torus", N: 8, Param: 1}, ""},
		{"bad n", SolveRequest{Algorithm: "agrid", Family: "walk", N: 0, Param: 1}, ""},
		{"huge n", SolveRequest{Algorithm: "agrid", Family: "line", N: 1 << 40, Param: 1}, ""},
		{"empty inline", SolveRequest{Algorithm: "agrid", Instance: &instance.Instance{Name: "empty"}}, ""},
		{"bad tuple", SolveRequest{Algorithm: "agrid", Family: "walk", N: 8, Param: 1,
			Tuple: &TupleJSON{Ell: -1, Rho: 1, N: 8}}, ""},
		{"line param 1e308", SolveRequest{Algorithm: "agrid", Family: "line", N: 3, Param: 1e308},
			"robot 1 at (1e+308, 0)"},
	}
	for _, p := range outOfRangeProbes {
		for _, alg := range []string{"agrid", "aseparator", "awave"} {
			cases = append(cases, badCase{p.name + " " + alg, SolveRequest{Algorithm: alg, Instance: p.inst}, p.want})
		}
	}
	for _, c := range cases {
		done := make(chan error, 1)
		go func() {
			_, err := s.Solve(c.req)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s: got %v, want ErrBadRequest", c.name, err)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
			}
		case <-time.After(badRequestDeadline):
			t.Errorf("%s: no answer within %v", c.name, badRequestDeadline)
		}
	}
	if s.Stats().Solves != 0 {
		t.Fatalf("bad requests ran %d simulations", s.Stats().Solves)
	}
}

func TestAlgorithmAliasesShareKey(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	a, err := s.Solve(walkRequest(5))
	if err != nil {
		t.Fatal(err)
	}
	req := walkRequest(5)
	req.Algorithm = "Grid"
	b, err := s.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Hit || a.Hash != b.Hash {
		t.Fatalf("alias missed the cache: %s vs %s", a.Hash, b.Hash)
	}
}

// The cache budget is approximate retained bytes: filling it past the
// budget evicts the least recently used entries, never the newest, and
// every eviction is counted.
func TestLRUEvictionByBytes(t *testing.T) {
	// Measure one entry's footprint (entries of the same shape differ only
	// by a few digits of formatted floats).
	probe := newTestService(t, Config{Workers: 1})
	if _, err := probe.Solve(walkRequest(100)); err != nil {
		t.Fatal(err)
	}
	probe.mu.Lock()
	per := probe.cache.total
	probe.mu.Unlock()
	if per <= 0 {
		t.Fatalf("entry footprint %d", per)
	}

	s := newTestService(t, Config{Workers: 1, CacheBytes: 2*per + per/2})
	h := make([]string, 3)
	for i := range h {
		sv, err := s.Solve(walkRequest(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		h[i] = sv.Hash
	}
	if _, ok := s.Probe(h[0]); ok {
		t.Fatal("oldest entry not evicted at a two-entry byte budget")
	}
	if _, ok := s.Probe(h[2]); !ok {
		t.Fatal("newest entry missing")
	}
	st := s.Stats()
	if st.CacheLen != 2 || st.CacheBytes > st.CacheCapacity {
		t.Fatalf("cache len=%d bytes=%d capacity=%d", st.CacheLen, st.CacheBytes, st.CacheCapacity)
	}
	// Exactly one entry, the oldest, was evicted; its size is the one the
	// probe measured, up to the few digits its floats differ by.
	if st.Evictions != 1 || st.EvictedBytes < per-32 || st.EvictedBytes > per+32 {
		t.Fatalf("evictions=%d evictedBytes=%d, want 1 entry of ~%d bytes", st.Evictions, st.EvictedBytes, per)
	}
	var exp strings.Builder
	s.Registry().WritePrometheus(&exp)
	for _, line := range []string{"dftp_cache_evictions_total 1\n", fmt.Sprintf("dftp_cache_evicted_bytes_total %d\n", st.EvictedBytes)} {
		if !strings.Contains(exp.String(), line) {
			t.Fatalf("/metricsz lacks %q", line)
		}
	}
}

// Size accounting covers the retained instance, which is what grows with
// the request beyond the response bytes: a 1024-robot entry weighs at least
// its body plus the points' storage.
func TestEntrySizeCountsInstance(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	sv, err := s.Solve(SolveRequest{Algorithm: "agrid", Family: "walk", N: 1024, Param: 0.9, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	if got, floor := s.Stats().CacheBytes, int64(len(sv.Body))+1024*int64(unsafe.Sizeof(geom.Point{})); got < floor {
		t.Fatalf("entry counts %dB, below body + points = %dB", got, floor)
	}
}

// One entry is admitted even when it alone exceeds the byte budget, so a
// tiny cache still produces hits for the latest request.
func TestLRUOversizedEntryAdmitted(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CacheBytes: 1})
	sv, err := s.Solve(walkRequest(102))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Solve(walkRequest(102))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || !bytes.Equal(warm.Body, sv.Body) {
		t.Fatal("oversized entry not served back")
	}
	if got := s.Stats().CacheLen; got != 1 {
		t.Fatalf("cache len %d, want 1", got)
	}
}

// A repeated family request is served through the shape→hash memo: the hit
// path never re-generates the instance. (The memo counter is the witness;
// the O(lookup) claim is BenchmarkService_SolveCached's delta.)
func TestShapeMemoServesRepeats(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	cold, err := s.Solve(walkRequest(103))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MemoHits; got != 0 {
		t.Fatalf("cold solve counted %d memo hits", got)
	}
	warm, err := s.Solve(walkRequest(103))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Hit || !bytes.Equal(warm.Body, cold.Body) {
		t.Fatal("memoized repeat not served from cache")
	}
	if got := s.Stats().MemoHits; got != 1 {
		t.Fatalf("memo hits = %d, want 1", got)
	}
	// Budget spellings that hash identically share the memo entry too.
	neg := walkRequest(103)
	neg.Budget = -1
	sv, err := s.Solve(neg)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Hit || s.Stats().MemoHits != 2 {
		t.Fatalf("negative-budget alias missed the memo (hits=%d)", s.Stats().MemoHits)
	}
	// Inline instances bypass the memo but still hit the content cache.
	gen, err := instance.Family("walk", 24, 0.9, 103)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := s.Solve(SolveRequest{Algorithm: "agrid", Instance: gen})
	if err != nil {
		t.Fatal(err)
	}
	if !inline.Hit || s.Stats().MemoHits != 2 {
		t.Fatalf("inline request should hit the cache without the memo (memo=%d)", s.Stats().MemoHits)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.Solve(walkRequest(7)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Solve(walkRequest(8)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestStatsAccounting(t *testing.T) {
	s := newTestService(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := s.Solve(walkRequest(40)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits / 1 solve", st)
	}
	if want := 2.0 / 3.0; st.HitRate < want-1e-9 || st.HitRate > want+1e-9 {
		t.Fatalf("hit rate %v, want %v", st.HitRate, want)
	}
	if st.Workers != 2 || st.QueueCapacity != 64 || st.CacheCapacity != 64<<20 {
		t.Fatalf("config echo wrong: %+v", st)
	}
}

func TestTraceEventsCached(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	sv, err := s.Solve(walkRequest(9))
	if err != nil {
		t.Fatal(err)
	}
	events, err := s.TraceEvents(sv.Hash)
	if err != nil || len(events) == 0 {
		t.Fatalf("no trace for cached %s: %v", sv.Hash, err)
	}
	wakes := 0
	for _, ev := range events {
		if ev.Kind == "wake" {
			wakes++
		}
	}
	if wakes != 24 {
		t.Fatalf("trace has %d wake events for n=24", wakes)
	}
	if _, err := s.TraceEvents("deadbeef"); !errors.Is(err, ErrNotCached) {
		t.Fatalf("trace of an unknown hash: %v, want ErrNotCached", err)
	}
}

func TestResponseMatchesDirectSolve(t *testing.T) {
	// The served numbers must equal a direct library solve of the same
	// resolved request — the service adds caching, never semantics.
	s := newTestService(t, Config{Workers: 1})
	sv, err := s.Solve(walkRequest(12))
	if err != nil {
		t.Fatal(err)
	}
	var resp SolveResponse
	if err := json.Unmarshal(sv.Body, &resp); err != nil {
		t.Fatal(err)
	}
	alg, err := AlgorithmByName(walkRequest(12).Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	req := walkRequest(12)
	r, err := s.resolve(alg.Name(), nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	// The resolved request straight through the library, bypassing the
	// service.
	res, rep, err := dftp.Solve(alg, r.inst, r.tup, r.budget)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Makespan != res.Makespan || resp.TotalEnergy != res.TotalEnergy || resp.Rounds != rep.Rounds {
		t.Fatalf("served %+v != direct (makespan=%v energy=%v rounds=%d)",
			resp, res.Makespan, res.TotalEnergy, rep.Rounds)
	}
	if resp.Awakened != 24 {
		t.Fatalf("awakened = %d", resp.Awakened)
	}
}

// The params memo must serve the derived tuple for repeats of a family
// shape — across algorithms and budgets, which change the content hash but
// not the instance — and must never change the tuple a request resolves to.
func TestParamsMemoSharedAcrossAlgorithmsAndBudgets(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CacheBytes: 1})

	cold, err := s.Solve(walkRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ParamsMemoHits; got != 0 {
		t.Fatalf("first solve of the shape hit the params memo %d times", got)
	}
	var coldResp SolveResponse
	if err := json.Unmarshal(cold.Body, &coldResp); err != nil {
		t.Fatal(err)
	}

	// Same family shape, different budget and different algorithm: distinct
	// hashes (cold solves), same derivation.
	budgeted := walkRequest(3)
	budgeted.Budget = 1e6
	other := walkRequest(3)
	other.Algorithm = "awave"
	for i, req := range []SolveRequest{budgeted, other} {
		sv, err := s.Solve(req)
		if err != nil {
			t.Fatal(err)
		}
		if sv.Hit {
			t.Fatalf("request %d unexpectedly hit the result cache", i)
		}
		if sv.Hash == cold.Hash {
			t.Fatalf("request %d hashed identically to the base request", i)
		}
		var resp SolveResponse
		if err := json.Unmarshal(sv.Body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Tuple != coldResp.Tuple {
			t.Fatalf("request %d resolved tuple %+v, want %+v", i, resp.Tuple, coldResp.Tuple)
		}
	}
	if got := s.Stats().ParamsMemoHits; got != 2 {
		t.Fatalf("paramsMemoHits = %d, want 2", got)
	}

	// A different seed is a different shape: no hit.
	if _, err := s.Solve(walkRequest(4)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ParamsMemoHits; got != 2 {
		t.Fatalf("different seed hit the params memo (hits = %d)", got)
	}
}

// An explicit tuple override and an inline instance must both bypass the
// params memo.
func TestParamsMemoBypasses(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})

	if _, err := s.Solve(walkRequest(5)); err != nil {
		t.Fatal(err)
	}
	override := walkRequest(5)
	override.Tuple = &TupleJSON{Ell: 2, Rho: 8, N: 24}
	sv, err := s.Solve(override)
	if err != nil {
		t.Fatal(err)
	}
	var resp SolveResponse
	if err := json.Unmarshal(sv.Body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tuple != (TupleJSON{Ell: 2, Rho: 8, N: 24}) {
		t.Fatalf("override tuple not honored: %+v", resp.Tuple)
	}
	inst, err := instance.Family("walk", 24, 0.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	inline := SolveRequest{Algorithm: "agrid", Instance: inst}
	if _, err := s.Solve(inline); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ParamsMemoHits; got != 0 {
		t.Fatalf("paramsMemoHits = %d, want 0 (override and inline must bypass)", got)
	}
}

// The params memo pins each memoized shape's generated instance, so it is
// held to CacheBytes, not to an entry count: resolving many distinct large
// family requests keeps at most the budget live. Each disk-16384 instance
// holds 256 KiB of points, so a memo bounded by entries keeps all sixteen.
func TestParamsMemoBoundedInBytes(t *testing.T) {
	const budget = 1 << 20
	s := newTestService(t, Config{Workers: 1, CacheBytes: budget})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for seed := int64(1); seed <= 16; seed++ {
		req := SolveRequest{Algorithm: "agrid", Family: "disk", N: 16384, Param: 1, Seed: seed}
		if _, err := s.resolve("agrid", geom.L2, &req); err != nil {
			t.Fatal(err)
		}
	}
	// Two collections: the first moves the hash's pooled encoding buffer
	// into its pool's victim cache, the second frees it.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew > 2*budget {
		t.Fatalf("16 distinct disk-16384 shapes left %.2f MiB live; the memo's budget is %d MiB",
			float64(grew)/(1<<20), budget>>20)
	}
	t.Logf("%.2f MiB live", float64(grew)/(1<<20))
}
