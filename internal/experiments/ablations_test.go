package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestA1TreeQuality(t *testing.T) {
	tb, err := NewRunner().A1TreeQuality(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "mean ratio", "max ratio")
	// Ratios must be ≥ 1 (optimal is a lower bound) — spot-check the render
	// contains no ratio below 1 by re-running the underlying measurement is
	// covered in wakeup tests; here just require non-empty rows.
	if tb.NumRows() < 3 {
		t.Errorf("expected 3 sizes, got %d rows", tb.NumRows())
	}
}

func TestA2RhoEstimation(t *testing.T) {
	tb, err := NewRunner().A2RhoEstimation(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "overhead")
}

func TestA3TeamGrowth(t *testing.T) {
	tb, err := NewRunner().A3TeamGrowth(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "speedup")
	// Team growth must help: every speedup > 1.
	for _, line := range strings.Split(tb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[4], 64); err == nil && v <= 1 {
			t.Errorf("team growth did not speed up sampling: %s", line)
		}
	}
}

func TestA4EllRobustness(t *testing.T) {
	tb, err := NewRunner().A4EllRobustness(Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "ell given")
	if strings.Contains(tb.String(), "INCOMPLETE") {
		t.Errorf("over-estimated ℓ broke correctness:\n%s", tb.String())
	}
}
