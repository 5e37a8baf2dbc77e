package dftp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// eventGoldenPath is the locked event-stream fixture. It was recorded
// before the algorithms' wake paths and round schedules were merged, so a
// passing run shows that every pinned run still emits the same events.
const eventGoldenPath = "testdata/event_golden_pr22.json"

// eventGolden is one pinned run: the SHA-256 of its NDJSON event stream
// plus the run's scalar outcome, fault counters included.
type eventGolden struct {
	Name        string  `json:"name"`
	SHA256      string  `json:"sha256"`
	Events      int     `json:"events"`
	Makespan    float64 `json:"makespan"`
	Duration    float64 `json:"duration"`
	MaxEnergy   float64 `json:"maxEnergy"`
	TotalEnergy float64 `json:"totalEnergy"`
	Awakened    int     `json:"awakened"`
	Rounds      int     `json:"rounds"`
	Misses      int     `json:"misses"`
	Violations  int     `json:"violations"`
	CrashStops  int64   `json:"crashStops"`
	Recoveries  int64   `json:"recoveries"`
	WakeDrops   int64   `json:"wakeDrops"`
	WakeDups    int64   `json:"wakeDups"`
	Byzantine   int64   `json:"byzTakeovers"`
	RosterSkips int64   `json:"rosterSkips"`
	Repairs     int64   `json:"repairs"`
}

// eventGoldenCase is one pinned run. Each is solved on a fresh engine and
// again on a warm arena engine, and both must reproduce its record.
type eventGoldenCase struct {
	name   string
	alg    Algorithm
	metric geom.Metric
	family string
	n      int
	param  float64
	budget float64
	faults *Faults
}

// eventGoldenCases is the pinned matrix: every algorithm under ℓ1, ℓ2 and
// ℓ∞ on walk, disk, chain and speed-banded walk shapes, fault-free and
// under crash-stop, crash-recovery and wake-drop with repair; plus
// budgeted runs on capacity-banded robots. An AWave team that leads a wave
// round sweeps eight 256-wide squares (~10⁵ events), so only its walk shape
// gathers a team large enough to lead; its other shapes pin round 0 and the
// gather schedule.
func eventGoldenCases() []eventGoldenCase {
	type family struct {
		name  string
		n     int
		param float64
	}
	fams := []family{{"walk", 32, 0.9}, {"disk", 48, 1.2}, {"chain", 40, 1}, {"walk+speedband:0.5", 32, 0.9}}
	waveFams := []family{{"walk", 16, 0.9}, {"disk", 16, 0.9}, {"chain", 12, 1.2}, {"walk+speedband:0.5", 12, 0.9}}
	faults := []*Faults{
		nil,
		{Kind: "crash-stop", Rate: 0.3, Seed: 5, Repair: true},
		{Kind: "crash-recovery", Rate: 0.3, Seed: 5, Repair: true},
		{Kind: "wake-drop", Rate: 0.3, Seed: 5, Repair: true},
	}
	var cs []eventGoldenCase
	for _, alg := range []Algorithm{AGrid{}, ASeparator{}, ASeparatorAuto{}, AWave{}} {
		shapes := fams
		if _, wave := alg.(AWave); wave {
			shapes = waveFams
		}
		for _, m := range []geom.Metric{geom.L1, geom.L2, geom.LInf} {
			for _, fam := range shapes {
				for _, f := range faults {
					cs = append(cs, eventGoldenCase{alg: alg, metric: m, family: fam.name,
						n: fam.n, param: fam.param, faults: f})
				}
			}
		}
	}
	for _, alg := range []Algorithm{AGrid{}, AWave{}, ASeparator{}} {
		cs = append(cs, eventGoldenCase{alg: alg, metric: geom.L2, family: "walk+capband:40",
			n: 32, param: 0.9, budget: 30})
	}
	for i := range cs {
		c := &cs[i]
		kind := "none"
		if c.faults != nil {
			kind = c.faults.Kind
		}
		c.name = fmt.Sprintf("%s/%s/%s-n%d/budget%g/%s", c.alg.Name(), c.metric.Name(),
			c.family, c.n, c.budget, kind)
	}
	return cs
}

// solveEventGolden solves one case on ar (nil: a fresh engine) and returns
// its events and its record without the stream hash.
func solveEventGolden(t *testing.T, ar *arena.Arena, c eventGoldenCase) ([]sim.Event, eventGolden) {
	t.Helper()
	inst, err := instance.Family(c.family, c.n, c.param, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	res, rep, err := SolveFaulted(context.Background(), ar, c.metric, c.alg, inst,
		TupleForIn(c.metric, inst), c.budget, c.faults, rec.Record)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	fs := res.Faults
	return rec.Events(), eventGolden{
		Name:        c.name,
		Events:      len(rec.Events()),
		Makespan:    res.Makespan,
		Duration:    res.Duration,
		MaxEnergy:   res.MaxEnergy,
		TotalEnergy: res.TotalEnergy,
		Awakened:    res.Awakened,
		Rounds:      rep.Rounds,
		Misses:      len(rep.Misses),
		Violations:  len(res.Violations),
		CrashStops:  fs.CrashStops,
		Recoveries:  fs.Recoveries,
		WakeDrops:   fs.WakeDrops,
		WakeDups:    fs.WakeDups,
		Byzantine:   fs.ByzTakeovers,
		RosterSkips: fs.RosterSkips,
		Repairs:     fs.Repairs,
	}
}

// runEventGolden solves c on a fresh engine, hashing its NDJSON event
// stream, and again on the warm arena ar; the arena run must emit the same
// events and outcome.
func runEventGolden(t *testing.T, ar *arena.Arena, c eventGoldenCase) eventGolden {
	t.Helper()
	events, got := solveEventGolden(t, nil, c)
	h := sha256.New()
	if err := trace.WriteEventsNDJSON(h, events); err != nil {
		t.Fatal(err)
	}
	got.SHA256 = hex.EncodeToString(h.Sum(nil))
	warmEvents, warm := solveEventGolden(t, ar, c)
	warm.SHA256 = got.SHA256
	if warm != got || !reflect.DeepEqual(warmEvents, events) {
		t.Errorf("%s: the arena engine's run differs from the fresh engine's:\n arena %+v\n fresh %+v", c.name, warm, got)
	}
	return got
}

// Every pinned run re-solves to the recorded event stream and outcome:
// the same events in the same order with the same times, positions and
// barrier keys, fault-free and faulted, on fresh and warm arena engines.
func TestEventStreamsMatchGolden(t *testing.T) {
	data, err := os.ReadFile(eventGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []eventGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", eventGoldenPath, err)
	}
	cs := eventGoldenCases()
	if len(want) != len(cs) {
		t.Fatalf("%s holds %d runs, the matrix has %d", eventGoldenPath, len(want), len(cs))
	}
	for i, c := range cs {
		if want[i].Name != c.name {
			t.Fatalf("run %d: fixture names %q, matrix names %q", i, want[i].Name, c.name)
		}
	}
	// One parallel subtest per algorithm, each with its own warm arena.
	for _, alg := range []string{"AGrid", "ASeparator", "ASeparatorAuto", "AWave"} {
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			ar := arena.New("event-golden-" + alg)
			defer ar.Close()
			for i, c := range cs {
				if c.alg.Name() != alg {
					continue
				}
				if got := runEventGolden(t, ar, c); got != want[i] {
					t.Errorf("%s changed:\n got  %+v\n want %+v", c.name, got, want[i])
				}
			}
		})
	}
}
