package dftp

import (
	"math"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/instance"
)

func TestGridScheduleMonotone(t *testing.T) {
	g := &schedule{r: 2, t: gridSlotWork(2)}
	g.slotW = g.t + 3*g.r
	prev := 0.0
	for k := 1; k <= 4; k++ {
		if start := g.roundStart(k); start <= prev {
			t.Fatalf("round %d start %v not after %v", k, start, prev)
		} else {
			prev = start
		}
		for i := 1; i <= 8; i++ {
			d := g.workDeadline(k, i)
			if d <= prev && i > 1 {
				t.Fatalf("slot (%d,%d) deadline %v not increasing", k, i, d)
			}
			prev = d
		}
	}
}

func TestGridSlotWindowsCoverWork(t *testing.T) {
	// A slot window (slotW) must exceed the per-square work bound t plus the
	// corner-to-corner travel 3R — the disjointness argument of §8.1.
	for _, ell := range []float64{1, 2, 4, 8} {
		r := 2 * ell
		wk := gridSlotWork(r)
		slotW := wk + 3*r
		if slotW <= wk+2*math.Sqrt2*r {
			t.Errorf("ℓ=%v: slot width %v too tight for work %v + travel", ell, slotW, wk)
		}
	}
}

func TestGridRegistrationLeader(t *testing.T) {
	g := &gridRun{schedule: schedule{r: 2, reg: make(map[gridKey][]int)}}
	s := geom.GridCell(geom.Pt(0.3, 0.3), 2)
	g.register(1, s, 7)
	g.register(1, s, 3)
	g.register(1, s, 9)
	if leader := g.teamLeader(1, s); leader != 3 {
		t.Errorf("leader = %d, want 3", leader)
	}
	// Different round: separate team.
	g.register(2, s, 5)
	if leader := g.teamLeader(2, s); leader != 5 {
		t.Errorf("round-2 leader = %d, want 5", leader)
	}
}

func TestWaveConstantsExported(t *testing.T) {
	// Exported accessors must agree with the internal schedule.
	for _, ell := range []float64{1, 4, 8} {
		r := AWaveCellWidth(ell)
		lw := math.Max(ell, 4)
		want := 8 * lw * lw * math.Log2(lw)
		if math.Abs(r-want) > 1e-9 {
			t.Errorf("cell width(%v) = %v, want %v", ell, r, want)
		}
		if AWaveSlotWidth(ell) <= r {
			t.Errorf("slot width must exceed cell width at ℓ=%v", ell)
		}
	}
}

func TestPartitionTeamShapes(t *testing.T) {
	cases := []struct {
		members int
		wantMin int // minimum group size including the leader in group 0
	}{
		{3, 1},  // total 4: groups 1,1,1,1
		{7, 2},  // total 8: groups of 2
		{15, 4}, // total 16
		{12, 3}, // total 13: 4,3,3,3
	}
	for _, c := range cases {
		members := make([]int, c.members)
		for i := range members {
			members[i] = i + 1
		}
		groups := partitionTeam(0, members)
		total := 1
		seen := map[int]bool{}
		for gi, g := range groups {
			size := len(g)
			if gi == 0 {
				size++ // leader
			}
			if size < c.wantMin {
				t.Errorf("members=%d: group %d size %d below %d", c.members, gi, size, c.wantMin)
			}
			total += len(g)
			for _, id := range g {
				if seen[id] {
					t.Errorf("members=%d: id %d in two groups", c.members, id)
				}
				seen[id] = true
			}
		}
		if total != c.members+1 {
			t.Errorf("members=%d: partition covers %d, want %d", c.members, total, c.members+1)
		}
	}
}

func TestAWaveTwoRounds(t *testing.T) {
	// A line long enough to need one real wave round beyond the source
	// square (cell width 256 at ℓ=4): robots out to 1.2·R.
	if testing.Short() {
		t.Skip("multi-round AWave is slow")
	}
	r := AWaveCellWidth(4)
	n := int(r * 1.2 / 4)
	in := instance.Line(n, 4)
	res, rep := runAlg(t, AWave{}, in, 0)
	if rep.Rounds < 1 {
		t.Errorf("rounds = %d, want ≥ 1 wave round", rep.Rounds)
	}
	if res.Makespan <= r {
		t.Errorf("makespan %v suspiciously small for a %v-long line", res.Makespan, float64(n)*4)
	}
}

func TestAWaveEnergyIndependentOfExtent(t *testing.T) {
	// Theorem 5's energy bound: robots in a longer swarm must not spend
	// more than those in a shorter one (each acts in O(1) rounds).
	if testing.Short() {
		t.Skip("multi-round AWave is slow")
	}
	r := AWaveCellWidth(4)
	short, _ := runAlg(t, AWave{}, instance.Line(int(r*0.4/4), 4), 0)
	long, _ := runAlg(t, AWave{}, instance.Line(int(r*1.2/4), 4), 0)
	if long.MaxEnergy > 2*short.MaxEnergy+4*r {
		t.Errorf("max energy grew with extent: %v vs %v", long.MaxEnergy, short.MaxEnergy)
	}
}
