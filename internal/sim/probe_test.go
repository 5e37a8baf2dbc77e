package sim

import (
	"testing"

	"freezetag/internal/geom"
)

// probeRun runs a small fixed scenario — source looks, walks to two
// sleepers, wakes them — and returns the result.
func probeRun(t *testing.T) Result {
	t.Helper()
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(1, 0), geom.Pt(2, 0)}})
	e.Spawn(SourceID, func(p *Proc) {
		p.Look()
		if err := p.MoveTo(geom.Pt(1, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(1, nil)
		p.Look()
		if err := p.MoveTo(geom.Pt(2, 0)); err != nil {
			t.Errorf("move: %v", err)
		}
		p.Wake(2, nil)
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProbeCounters pins the event-loop probe counters on a fixed scenario:
// the exact values are part of the schedule, so they are asserted exactly,
// not just as "nonzero".
func TestProbeCounters(t *testing.T) {
	res := probeRun(t)
	if res.Looks != 2 {
		t.Errorf("Looks = %d, want 2", res.Looks)
	}
	if res.Moves != 2 {
		t.Errorf("Moves = %d, want 2", res.Moves)
	}
	// One spawn dispatch plus one resume per completed move: the exact step
	// count is schedule-determined; assert the invariant floor and that it
	// was recorded at all.
	if res.Steps < res.Moves+1 {
		t.Errorf("Steps = %d, want ≥ %d", res.Steps, res.Moves+1)
	}
}

// TestProbeCountersDeterministic asserts repeated runs report identical
// probe counters — they are part of the deterministic schedule, so any
// drift is a scheduling leak.
func TestProbeCountersDeterministic(t *testing.T) {
	ref := probeRun(t)
	for i := 0; i < 5; i++ {
		got := probeRun(t)
		if got.Steps != ref.Steps || got.Looks != ref.Looks || got.Moves != ref.Moves {
			t.Fatalf("run %d probes = (%d,%d,%d), ref = (%d,%d,%d)",
				i, got.Steps, got.Looks, got.Moves, ref.Steps, ref.Looks, ref.Moves)
		}
	}
}

// TestProbeCountersEscort asserts every escorted team member's arrival
// counts as a move — the serving tier's moves counter prices total
// mechanical work, not just leader segments.
func TestProbeCountersEscort(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(0, 0)}})
	e.Spawn(SourceID, func(p *Proc) {
		p.Wake(1, nil)
		if err := p.Escort([]int{1}, geom.Pt(1, 0)); err != nil {
			t.Errorf("escort: %v", err)
		}
	})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 2 { // leader + escorted member
		t.Errorf("Moves = %d, want 2", res.Moves)
	}
}
