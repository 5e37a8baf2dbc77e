package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testOptions(t *testing.T) options {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return options{root: root, seed: 1, seconds: 20, scale: 0.005, setups: 1}
}

// Every workload at a tiny scale, with a five-request traced run of the
// race mix, emits every metric BENCHMARK.json names, with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	base := testOptions(t)
	spec, err := readSpec(base.root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		o := base
		o.trace = w.name == "race"
		o.traceDir = t.TempDir()
		rec, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rec.Requests.Failed != 0 {
			t.Errorf("%s: %d of %d requests failed", w.name, rec.Requests.Failed, rec.Requests.Measured)
		}
		if len(rec.EndToEnd) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json names %d", w.name, len(rec.EndToEnd), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			if got, ok := rec.EndToEnd[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s = %+v, want unit %q", w.name, m.Name, got, m.Unit)
			}
		}
		if !o.trace {
			continue
		}
		if rec.Requests.Traced != 5 {
			t.Errorf("%s: traced %d requests, want 5", w.name, rec.Requests.Traced)
		}
		if len(rec.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json names %d", w.name, len(rec.PerLayer), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if got, ok := rec.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %q", w.name, m.Name, got, m.Unit)
			}
		}
		if rec.Spans["portfolio.racer.awave"].Count == 0 {
			t.Errorf("%s: the traced sample holds no AWave race", w.name)
		}
		data, err := os.ReadFile(filepath.Join(o.traceDir, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []traceEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace file has no events (err %v)", w.name, err)
		}
	}
}

// The set-up gate passes on the fixtures and fails, naming the fixture,
// when a golden body is corrupted.
func TestGateRejectsCorruptedGolden(t *testing.T) {
	o := testOptions(t)
	gs, err := loadGoldens(filepath.Join(o.root, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(1)
	defer srv.close()
	if err := gate(srv, gs); err != nil {
		t.Fatalf("intact fixtures: %v", err)
	}
	gs[0].Body = strings.Replace(gs[0].Body, `"allAwake":true`, `"allAwake":false`, 1)
	if err := gate(srv, gs); err == nil || !strings.Contains(err.Error(), gs[0].Desc) {
		t.Fatalf("corrupted fixture %q: gate returned %v", gs[0].Desc, err)
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// compareDirs calls equal sets unchanged, a 30% rise in peak RSS regressed
// and a 30% throughput drop worsened, and flags a per-layer count that
// differs.
func TestCompareVerdicts(t *testing.T) {
	o := testOptions(t)
	spec, err := readSpec(o.root)
	if err != nil {
		t.Fatal(err)
	}
	write := func(rss, rps, allocs float64) string {
		dir := t.TempDir()
		for k, jitter := range []float64{-0.01, 0, 0.01} {
			res := results{Workloads: map[string]*record{}}
			for _, w := range workloads {
				rec := &record{
					EndToEnd: map[string]metric{},
					PerLayer: map[string]metric{
						"throughput_rps":        {rps * (1 + jitter), "req/s"},
						"portfolio.race_allocs": {allocs, "count"},
					},
				}
				for _, m := range spec.EndToEnd {
					rec.EndToEnd[m.Name] = metric{1, m.Unit}
				}
				rec.EndToEnd["peak_rss_mb"] = metric{rss * (1 + jitter), "MiB"}
				res.Workloads[w.name] = rec
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run-%d.json", k)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	base := write(100, 100, 10)
	var out bytes.Buffer
	if ok, err := compareDirs(&out, o.root, base, write(100, 100, 10)); err != nil || !ok {
		t.Fatalf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if s := out.String(); !strings.Contains(s, "peak_rss_mb") || strings.Contains(s, "regressed") || strings.Contains(s, "worsened") {
		t.Errorf("equal sets:\n%s", s)
	}
	out.Reset()
	if ok, _ := compareDirs(&out, o.root, base, write(130, 70, 13)); ok {
		t.Fatalf("a 30%% rise in peak RSS passed:\n%s", out.String())
	}
	for _, want := range []string{"regressed", "worsened", "FLAG hot-family portfolio.race_allocs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in:\n%s", want, out.String())
		}
	}
}
