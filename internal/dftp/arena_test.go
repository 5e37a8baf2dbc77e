package dftp

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// A run's event stream depends only on the run: an ASeparator or AWave
// solve recorded on a warm pooled arena, one that has already served this
// and other shapes, emits exactly the events of a fresh one-shot engine,
// barrier keys included, fault-free and under crash-recovery with repair
// (whose stalled-barrier releases must not hand a sweep's pooled state to
// the next one while a member still writes it).
func TestArenaTraceMatchesFresh(t *testing.T) {
	record := func(ar *arena.Arena, m geom.Metric, alg Algorithm, inst *instance.Instance, faults *Faults) []sim.Event {
		t.Helper()
		rec := trace.New()
		if _, _, err := SolveFaulted(context.Background(), ar, m, alg, inst, TupleForIn(m, inst), 0, faults, rec.Record); err != nil {
			t.Fatalf("%s on %s: %v", alg.Name(), inst.Name, err)
		}
		return rec.Events()
	}
	type family struct {
		name  string
		n     int
		param float64
	}
	disk, walk, chain := family{"disk", 64, 1.2}, family{"walk", 40, 0.9}, family{"chain", 48, 1}
	crashRecovery := &Faults{Kind: "crash-recovery", Rate: 0.3, Seed: 5, Repair: true}
	ar := arena.New("test")
	defer ar.Close()
	for _, tc := range []struct {
		alg     Algorithm
		faults  *Faults
		metrics []geom.Metric
		fams    []family
	}{
		{ASeparator{}, nil, []geom.Metric{nil, geom.L1}, []family{disk, walk, chain}},
		{ASeparator{}, crashRecovery, []geom.Metric{nil, geom.L1}, []family{disk, walk, chain}},
		// AWave sweeps 256-wide wave squares, so one shape keeps it quick.
		{AWave{}, nil, []geom.Metric{nil}, []family{walk}},
		{AWave{}, crashRecovery, []geom.Metric{nil}, []family{walk}},
	} {
		for _, m := range tc.metrics {
			for _, fam := range tc.fams {
				inst, err := instance.Family(fam.name, fam.n, fam.param, 3)
				if err != nil {
					t.Fatal(err)
				}
				fresh := record(nil, m, tc.alg, inst, tc.faults)
				keys := 0
				for _, ev := range fresh {
					if ev.Kind == "barrier" && strings.HasPrefix(ev.Extra, "explore/") {
						keys++
					}
				}
				if keys == 0 {
					t.Fatalf("%s on %s: no exploration barriers on the trace", tc.alg.Name(), inst.Name)
				}
				// Serve this shape and another before the compared run, so the
				// arena's pooled engine and scratch are warm.
				record(ar, m, tc.alg, inst, tc.faults)
				record(ar, m, AGrid{}, inst, nil)
				if warm := record(ar, m, tc.alg, inst, tc.faults); !reflect.DeepEqual(warm, fresh) {
					t.Fatalf("%s on %s under %s (faults %v): warm-arena trace (%d events) differs from the fresh engine's (%d events)",
						tc.alg.Name(), inst.Name, geom.MetricOrL2(m).Name(), tc.faults, len(warm), len(fresh))
				}
			}
		}
	}
}

// panicAlg is an Algorithm whose source wakes the robots it sees onto a
// barrier no one else reaches, waits, and then panics, so the arena engine
// it runs on holds awake robots and parked processes when it does.
type panicAlg struct{}

func (panicAlg) Name() string { return "panic" }

func (panicAlg) Install(e *sim.Engine, tup Tuple) *Report {
	e.Spawn(sim.SourceID, func(p *sim.Proc) {
		seen := slices.Clone(p.Look())
		never := &sim.Barrier{Need: 2}
		for _, id := range seen {
			if err := p.MoveTo(e.Robot(id).InitPos()); err != nil {
				break
			}
			p.Wake(id, func(q *sim.Proc) { q.Await(never, "panic/never") })
		}
		p.Wait(1)
		panic("panicAlg: source fault")
	})
	return &Report{}
}

// A process panic on a worker arena is the solve's error, not the end of
// the program, and it does not poison the arena: the next solve there runs
// on a fresh engine and emits exactly the events of a one-shot engine.
func TestArenaSolveAfterProcessPanic(t *testing.T) {
	inst, err := instance.Family("walk", 24, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	tup := TupleForIn(nil, inst)
	solve := func(ar *arena.Arena, alg Algorithm) (sim.Result, []sim.Event, error) {
		rec := trace.New()
		res, _, err := SolveFaulted(context.Background(), ar, nil, alg, inst, tup, 0, nil, rec.Record)
		return res, rec.Events(), err
	}
	ar := arena.New("test")
	defer ar.Close()
	if _, _, err := solve(ar, AGrid{}); err != nil {
		t.Fatal(err)
	}
	res, _, err := solve(ar, panicAlg{})
	if !errors.Is(err, sim.ErrProcessPanic) || !strings.Contains(err.Error(), "panicAlg: source fault") {
		t.Fatalf("err = %v, want ErrProcessPanic carrying the panic value", err)
	}
	if res.Awakened == 0 {
		t.Fatal("the panicking source woke no robot before it panicked")
	}
	fresh, freshEvents, err := solve(nil, AGrid{})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmEvents, err := solve(ar, AGrid{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, fresh) || !reflect.DeepEqual(warmEvents, freshEvents) {
		t.Fatalf("the arena's solve after a panic differs from a fresh engine's:\n arena %+v (%d events)\n fresh %+v (%d events)",
			warm, len(warmEvents), fresh, len(freshEvents))
	}
}
