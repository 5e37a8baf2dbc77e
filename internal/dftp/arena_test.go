package dftp

import (
	"context"
	"reflect"
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
		if ar != nil {
			ar.Reset()
		}
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
