package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	// Idempotent registration returns the same instance.
	if r.Counter("x_total", "help") != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels → different series.
	c2 := r.Counter("x_total", "help", L("k", "v"))
	if c2 == c {
		t.Fatal("labeled series aliased the unlabeled one")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x", "help", func() float64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	// Bounds 2^-2 .. 2^2 = 0.25, 0.5, 1, 2, 4, +Inf.
	h := NewHistogram(-2, 2)
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {-1, 0}, {0.1, 0}, {0.25, 0}, // ≤ 2^-2
		{0.26, 1}, {0.5, 1},
		{0.75, 2}, {1, 2},
		{1.5, 3}, {2, 3},
		{3, 4}, {4, 4},
		{4.01, 5}, {1e9, 5}, // +Inf bucket
		{math.Inf(1), 5},
		{math.NaN(), 5},
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("bucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	snap := h.Snapshot()
	wantBounds := []float64{0.25, 0.5, 1, 2, 4}
	if len(snap.Bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v", snap.Bounds)
	}
	for i, b := range wantBounds {
		if snap.Bounds[i] != b {
			t.Fatalf("bounds = %v, want %v", snap.Bounds, wantBounds)
		}
	}
}

func TestHistogramRecordAndSum(t *testing.T) {
	h := NewHistogram(-2, 2)
	for _, v := range []float64{0.1, 0.3, 1, 2.5, 100} {
		h.Record(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if want := 0.1 + 0.3 + 1 + 2.5 + 100; math.Abs(snap.Sum-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", snap.Sum, want)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines and
// asserts the final snapshot is exactly consistent: the per-bucket counts
// sum to the total, and the sum matches the recorded values. Run under
// -race this also proves the record path is data-race-free.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(-20, 5)
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Spread observations across several octaves.
				h.Record(float64(1+(i+w)%64) / 1024)
			}
		}(w)
	}
	// Concurrent snapshots must always be internally consistent
	// (Count == Σ Counts by construction) even while recording runs.
	for i := 0; i < 100; i++ {
		snap := h.Snapshot()
		var total uint64
		for _, c := range snap.Counts {
			total += c
		}
		if total != snap.Count {
			t.Fatalf("mid-flight snapshot inconsistent: Σbuckets=%d count=%d", total, snap.Count)
		}
	}
	wg.Wait()
	snap := h.Snapshot()
	if want := uint64(workers * perWorker); snap.Count != want {
		t.Fatalf("count = %d, want %d", snap.Count, want)
	}
	var total uint64
	var wantSum float64
	for _, c := range snap.Counts {
		total += c
	}
	if total != snap.Count {
		t.Fatalf("Σbuckets = %d, count = %d", total, snap.Count)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			wantSum += float64(1+(i+w)%64) / 1024
		}
	}
	if math.Abs(snap.Sum-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %g, want ≈ %g", snap.Sum, wantSum)
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram(-20, 5)
	allocs := testing.AllocsPerRun(1000, func() { h.Record(0.0042) })
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
}

func TestCounterAddAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("y_total", "help")
	allocs := testing.AllocsPerRun(1000, func() { c.Add(3) })
	if allocs != 0 {
		t.Fatalf("Add allocates %v per op, want 0", allocs)
	}
}

// TestSpanMarks checks that marks are consecutive laps — each covers the
// time since the previous one, with no gap between them — and that the
// span's total covers their sum.
func TestSpanMarks(t *testing.T) {
	sp := StartSpan()
	d1 := sp.Mark()
	time.Sleep(time.Millisecond)
	d2 := sp.Mark()
	if d2 < time.Millisecond {
		t.Fatalf("second lap %v does not cover the 1ms sleep", d2)
	}
	if got := sp.mark.Sub(sp.begin); got != d1+d2 {
		t.Fatalf("laps %v + %v do not tile the span up to the last mark (%v)", d1, d2, got)
	}
	if sp.Total() < d1+d2 {
		t.Fatalf("total %v < sum of marked stages %v", sp.Total(), d1+d2)
	}
}

func TestAppendServerTiming(t *testing.T) {
	b := AppendServerTiming(nil, "sim", 1234567*time.Nanosecond)
	b = AppendServerTiming(b, "marshal", 42*time.Microsecond)
	if got, want := string(b), "sim;dur=1.235, marshal;dur=0.042"; got != want {
		t.Fatalf("Server-Timing = %q, want %q", got, want)
	}
}

// TestWritePrometheusGolden locks the exposition format byte for byte: a
// counter family with two series, a gauge, and a small histogram with
// known observations.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dftp_test_requests_total", "Requests by outcome.", L("outcome", "hit"))
	c.Add(3)
	r.Counter("dftp_test_requests_total", "Requests by outcome.", L("outcome", "miss")).Add(1)
	r.Gauge("dftp_test_queue_depth", "Jobs queued.", func() float64 { return 2 })
	h := r.Histogram("dftp_test_latency_seconds", "Latency.", -2, 1, L("stage", "sim"))
	h.Record(0.2) // ≤ 0.25
	h.Record(0.4) // ≤ 0.5
	h.Record(0.4)
	h.Record(8) // +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP dftp_test_latency_seconds Latency.
# TYPE dftp_test_latency_seconds histogram
dftp_test_latency_seconds_bucket{stage="sim",le="0.25"} 1
dftp_test_latency_seconds_bucket{stage="sim",le="0.5"} 3
dftp_test_latency_seconds_bucket{stage="sim",le="1"} 3
dftp_test_latency_seconds_bucket{stage="sim",le="2"} 3
dftp_test_latency_seconds_bucket{stage="sim",le="+Inf"} 4
dftp_test_latency_seconds_sum{stage="sim"} 9
dftp_test_latency_seconds_count{stage="sim"} 4
# HELP dftp_test_queue_depth Jobs queued.
# TYPE dftp_test_queue_depth gauge
dftp_test_queue_depth 2
# HELP dftp_test_requests_total Requests by outcome.
# TYPE dftp_test_requests_total counter
dftp_test_requests_total{outcome="hit"} 3
dftp_test_requests_total{outcome="miss"} 1
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "line one\nline \\two", L("k", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# HELP esc_total line one\\nline \\\\two\n" +
		"# TYPE esc_total counter\n" +
		"esc_total{k=\"a\\\"b\\\\c\\n\"} 1\n"
	if got := sb.String(); got != want {
		t.Fatalf("escaped exposition = %q, want %q", got, want)
	}
}
