package dftp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"freezetag/internal/arena"
	"freezetag/internal/instance"
	"freezetag/internal/sim"
	"freezetag/internal/trace"
)

// coincidentPairs is a 40-robot instance whose robots come in coincident
// pairs: every point of a seed-2, 20-step random walk is held by two
// robots, with speeds 0.5 + (i mod 7)/7 so the two of a pair differ.
func coincidentPairs() *instance.Instance {
	walk := instance.RandomWalk(rand.New(rand.NewSource(2)), 20, 0.9)
	in := &instance.Instance{Name: "walk-pairs-n40", Source: walk.Source}
	for _, p := range walk.Points {
		in.Points = append(in.Points, p, p)
	}
	for i := range in.Points {
		in.Profiles = append(in.Profiles, instance.Profile{Speed: 0.5 + float64(i%7)/7})
	}
	return in
}

// Robots that share a position differ only by id, so only the id may
// break the tie between them: DFSampling recruits the lower id first. A
// solve of coincident pairs is then one run, whatever engine it runs on:
// twenty solves each on fresh and on warm arena engines emit one event
// stream and reach one result.
func TestCoincidentRobotsSolveDeterministically(t *testing.T) {
	in := coincidentPairs()
	tup := TupleForIn(nil, in)
	ar := arena.New("coincident")
	defer ar.Close()
	for _, alg := range []Algorithm{ASeparator{}, ASeparatorAuto{}} {
		var wantHash string
		var want sim.Result
		var wantRep *Report
		for i := 0; i < 40; i++ {
			var engines *arena.Arena // fresh engines first, then the arena's
			if i >= 20 {
				engines = ar
			}
			rec := trace.New()
			res, rep, err := SolveFaulted(context.Background(), engines, nil, alg, in, tup, 0, nil, rec.Record)
			if err != nil {
				t.Fatalf("%s solve %d: %v", alg.Name(), i, err)
			}
			if !res.AllAwake {
				t.Fatalf("%s solve %d: %d robots still asleep", alg.Name(), i, in.N()-res.Awakened)
			}
			h := sha256.New()
			if err := trace.WriteEventsNDJSON(h, rec.Events()); err != nil {
				t.Fatal(err)
			}
			hash := hex.EncodeToString(h.Sum(nil))
			if i == 0 {
				wantHash, want, wantRep = hash, res, rep
				continue
			}
			if hash != wantHash || !reflect.DeepEqual(res, want) || !reflect.DeepEqual(rep, wantRep) {
				t.Fatalf("%s solve %d differs from solve 0: events %s…, makespan %v, energy %v; solve 0: events %s…, makespan %v, energy %v",
					alg.Name(), i, hash[:12], res.Makespan, res.TotalEnergy, wantHash[:12], want.Makespan, want.TotalEnergy)
			}
		}
	}
}
