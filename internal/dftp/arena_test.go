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

// A run's event stream depends only on the run: an ASeparator solve recorded
// on a warm pooled arena, one that has already served this and other shapes,
// emits exactly the events of a fresh one-shot engine, barrier keys included.
func TestArenaTraceMatchesFresh(t *testing.T) {
	record := func(ar *arena.Arena, m geom.Metric, alg Algorithm, inst *instance.Instance) []sim.Event {
		t.Helper()
		if ar != nil {
			ar.Reset()
		}
		rec := trace.New()
		if _, _, err := SolveFaulted(context.Background(), ar, m, alg, inst, TupleForIn(m, inst), 0, nil, rec.Record); err != nil {
			t.Fatalf("%s on %s: %v", alg.Name(), inst.Name, err)
		}
		return rec.Events()
	}
	ar := arena.New("test")
	defer ar.Close()
	for _, m := range []geom.Metric{nil, geom.L1} {
		for _, fam := range []struct {
			name  string
			n     int
			param float64
		}{{"disk", 64, 1.2}, {"walk", 40, 0.9}, {"chain", 48, 1}} {
			inst, err := instance.Family(fam.name, fam.n, fam.param, 3)
			if err != nil {
				t.Fatal(err)
			}
			fresh := record(nil, m, ASeparator{}, inst)
			keys := 0
			for _, ev := range fresh {
				if ev.Kind == "barrier" && strings.HasPrefix(ev.Extra, "explore/") {
					keys++
				}
			}
			if keys == 0 {
				t.Fatalf("%s: no exploration barriers on the trace", inst.Name)
			}
			// Serve this shape and another before the compared run, so the
			// arena's pooled engine and scratch are warm.
			record(ar, m, ASeparator{}, inst)
			record(ar, m, AGrid{}, inst)
			if warm := record(ar, m, ASeparator{}, inst); !reflect.DeepEqual(warm, fresh) {
				t.Fatalf("%s under %s: warm-arena trace (%d events) differs from the fresh engine's (%d events)",
					inst.Name, geom.MetricOrL2(m).Name(), len(warm), len(fresh))
			}
		}
	}
}
