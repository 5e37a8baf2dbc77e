package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// readResults loads every results file (run-*.json) in dir, in name order.
func readResults(dir string) ([]*results, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no results files", dir)
	}
	slices.Sort(paths)
	var out []*results
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var res results
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &res)
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method; a single value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	d := slices.Sorted(slices.Values(xs))
	ld := len(d)
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// countsDiffer reports whether the set medians a and b of a per-layer count
// disagree. Simulator event counts and correctness counters must repeat
// exactly. Allocation counts may move by 1% or two allocations: code that
// starts goroutines allocates a goroutine record or not depending on which
// ones the runtime can reuse. Timings and ratios are not compared here.
func countsDiffer(name string, a, b float64) bool {
	switch {
	case strings.HasSuffix(name, "_allocs"):
		return math.Abs(b-a) > math.Max(2, 0.01*a)
	case strings.HasSuffix(name, "_per_solve"), name == "dftp.misses", name == "dftp.incomplete_ratio":
		return a != b
	}
	return false
}

func metricValues(rs []*results, workload, name string, perLayer bool) []float64 {
	var xs []float64
	for _, r := range rs {
		rec := r.Workloads[workload]
		if rec == nil {
			continue
		}
		ms := rec.EndToEnd
		if perLayer {
			ms = rec.PerLayer
		}
		if m, ok := ms[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// judgement compares one metric of set b (the change) with set a (the
// parent) on one workload.
type judgement struct {
	qa, qb [3]float64
	// worse is the change of the median as a share of a's, signed so that
	// positive is worse.
	worse float64
	// wins and losses count the paired runs b reads better and worse in.
	wins, losses, pairs int
	// allBetter: every run of b reads better than every run of a.
	allBetter bool
	// spread is the wider of the two sets' quartile spreads, as a share of
	// their medians.
	spread float64
}

func judge(va, vb []float64, better string) judgement {
	sign := 1.0 // positive change = worse
	if better == "higher" {
		sign = -1
	}
	j := judgement{qa: quartiles(va), qb: quartiles(vb), pairs: min(len(va), len(vb))}
	j.worse = sign * (j.qb[1] - j.qa[1]) / j.qa[1]
	for i := range j.pairs {
		switch d := sign * (vb[i] - va[i]); {
		case d < 0:
			j.wins++
		case d > 0:
			j.losses++
		}
	}
	j.allBetter = slices.Max(scaled(vb, sign)) < slices.Min(scaled(va, sign))
	j.spread = math.Max((j.qa[2]-j.qa[0])/j.qa[1], (j.qb[2]-j.qb[0])/j.qb[1])
	return j
}

// separated: b wins (or loses) at least nine tenths of the pairs, given as
// n, and the medians differ by more than a's quartile spread.
func (j judgement) separated(n int) bool {
	return float64(n) >= 0.9*float64(j.pairs) && math.Abs(j.qb[1]-j.qa[1]) > j.qa[2]-j.qa[0]
}

func (j judgement) row(tw io.Writer, workload, name, unit, bound, verdict string) {
	fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.2f%%\t%d/%d\t%s\t%s\n",
		workload, name, unit, j.qa[1], j.qa[0], j.qa[2], j.qb[1], j.qb[0], j.qb[2], 100*(j.qb[1]-j.qa[1])/j.qa[1],
		j.wins, j.pairs, bound, verdict)
}

// compareDirs judges results set b (the change) against set a (the
// parent), workload by workload and end-to-end metric by metric:
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: otherwise, either side's quartile spread is wider than
//     the bound and not every run of b beats every run of a;
//   - improved: b wins at least nine tenths of the paired runs and the
//     medians differ by more than a's quartile spread;
//   - unchanged: everything else.
//
// Per-layer metrics have no bound. A second table gives each one whose
// median in a is not 0 the verdict improved, worsened (the same rule with
// b losing) or "-". The comparison also flags more failed requests in b,
// and any per-layer count whose set medians differ (see countsDiffer). It
// reports false when anything regressed or was flagged.
func compareDirs(w io.Writer, root, dirA, dirB string) (bool, error) {
	spec, err := readSpec(root)
	if err != nil {
		return false, err
	}
	a, err := readResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := readResults(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	header := "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tB wins\tbound\tverdict"
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "# A = %s (%d runs), B = %s (%d runs)\n", dirA, len(a), dirB, len(b))
	fmt.Fprintln(tw, header)
	var flags []string
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(a, wl.Name, m.Name, false), metricValues(b, wl.Name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				flags = append(flags, fmt.Sprintf("%s %s: missing from a results set", wl.Name, m.Name))
				continue
			}
			j := judge(va, vb, m.Better)
			verdict := "unchanged"
			switch {
			case j.worse > m.Bound:
				verdict = "regressed"
				ok = false
			case j.spread > m.Bound && !j.allBetter:
				verdict = "unresolved"
			case j.worse < 0 && j.separated(j.wins):
				verdict = "improved"
			}
			j.row(tw, wl.Name, m.Name, m.Unit, fmt.Sprint(m.Bound), verdict)
		}
		if fa, fb := failedTotal(a, wl.Name), failedTotal(b, wl.Name); fb > fa {
			flags = append(flags, fmt.Sprintf("%s: %d failed requests in B against %d in A", wl.Name, fb, fa))
		}
	}
	fmt.Fprintln(tw, "# per-layer metrics, no bound")
	fmt.Fprintln(tw, header)
	for _, wl := range spec.Workloads {
		for _, m := range spec.PerLayer {
			va, vb := metricValues(a, wl.Name, m.Name, true), metricValues(b, wl.Name, m.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue // untraced runs carry no replay metrics
			}
			j := judge(va, vb, m.Better)
			if countsDiffer(m.Name, j.qa[1], j.qb[1]) {
				flags = append(flags, fmt.Sprintf("%s %s: count differs, A median %g, B median %g", wl.Name, m.Name, j.qa[1], j.qb[1]))
			}
			if j.qa[1] == 0 {
				continue
			}
			verdict := "-"
			switch {
			case j.worse < 0 && j.separated(j.wins):
				verdict = "improved"
			case j.worse > 0 && j.separated(j.losses):
				verdict = "worsened"
			}
			j.row(tw, wl.Name, m.Name, m.Unit, "-", verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	if len(flags) == 0 {
		fmt.Fprintln(w, "# per-layer counts agree; no new failures")
	}
	for _, f := range flags {
		fmt.Fprintln(w, "FLAG", f)
		ok = false
	}
	return ok, nil
}

// scaled multiplies xs by s, so one max/min serves both directions.
func scaled(xs []float64, s float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = s * x
	}
	return out
}

func failedTotal(rs []*results, workload string) int {
	n := 0
	for _, r := range rs {
		if rec := r.Workloads[workload]; rec != nil {
			n += rec.Requests.Failed
		}
	}
	return n
}
