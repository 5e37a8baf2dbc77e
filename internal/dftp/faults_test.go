package dftp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"freezetag/internal/instance"
	"freezetag/internal/sim"
)

func faultAlgs() []Algorithm {
	return []Algorithm{ASeparator{}, AGrid{}, AWave{}, ASeparatorAuto{}}
}

func solveFaulted(t *testing.T, alg Algorithm, in *instance.Instance, f *Faults, traceFn func(sim.Event)) (sim.Result, *Report) {
	t.Helper()
	tup := TupleForIn(nil, in)
	res, rep, err := SolveFaulted(context.Background(), nil, nil, alg, in, tup, math.Inf(1), f, traceFn)
	if err != nil {
		t.Fatalf("%s on %s: %v", alg.Name(), in.Name, err)
	}
	return res, rep
}

func TestFaultsValidate(t *testing.T) {
	cases := []struct {
		name string
		f    *Faults
		ok   bool
	}{
		{"nil", nil, true},
		{"crash-stop", &Faults{Kind: "crash-stop", Rate: 0.3}, true},
		{"crash-recovery", &Faults{Kind: "crash-recovery", Rate: 1, Downtime: 2.5}, true},
		{"wake-drop", &Faults{Kind: "wake-drop", Rate: 0.5, Seed: 9}, true},
		{"wake-dup", &Faults{Kind: "wake-dup", Rate: 0}, true},
		{"byzantine", &Faults{Kind: "byzantine", Byzantine: 2}, true},
		{"unknown kind", &Faults{Kind: "meteor"}, false},
		{"empty kind", &Faults{}, false},
		{"negative rate", &Faults{Kind: "crash-stop", Rate: -0.1}, false},
		{"rate above one", &Faults{Kind: "crash-stop", Rate: 1.5}, false},
		{"nan rate", &Faults{Kind: "crash-stop", Rate: math.NaN()}, false},
		{"nan downtime", &Faults{Kind: "crash-recovery", Rate: 0.1, Downtime: math.NaN()}, false},
		{"inf downtime", &Faults{Kind: "crash-recovery", Rate: 0.1, Downtime: math.Inf(1)}, false},
		{"negative downtime", &Faults{Kind: "crash-recovery", Rate: 0.1, Downtime: -1}, false},
		{"byzantine without count", &Faults{Kind: "byzantine"}, false},
		{"byzantine count on crash", &Faults{Kind: "crash-stop", Rate: 0.1, Byzantine: 3}, false},
	}
	for _, c := range cases {
		err := c.f.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

// TestParseFaults covers both compact separators (dftp-run's ',' and the
// loadgen mix's ';'), the JSON form, and every rejection path.
func TestParseFaults(t *testing.T) {
	cases := []struct {
		name, spec, sep string
		want            *Faults
		err             string // substring of the expected error; "" = ok
	}{
		{"empty", "", ",", nil, ""},
		{"blank", "  ", ";", nil, ""},
		{"kind only", "wake-dup", ",", &Faults{Kind: "wake-dup"}, ""},
		{"comma options", "crash-stop,rate=0.3,seed=42,repair", ",",
			&Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42, Repair: true}, ""},
		{"semicolon options", " crash-recovery; rate=0.2 ;down=2;repair=true", ";",
			&Faults{Kind: "crash-recovery", Rate: 0.2, Downtime: 2, Repair: true}, ""},
		{"repair=false", "wake-drop;rate=0.5;repair=false", ";", &Faults{Kind: "wake-drop", Rate: 0.5}, ""},
		{"byzantine", "byzantine,byz=2,seed=7", ",", &Faults{Kind: "byzantine", Byzantine: 2, Seed: 7}, ""},
		{"json", `{"kind":"wake-drop","rate":0.25,"seed":3,"repair":true}`, ";",
			&Faults{Kind: "wake-drop", Rate: 0.25, Seed: 3, Repair: true}, ""},
		{"wrong separator", "crash-stop;rate=0.3", ",", nil, "unknown fault kind"},
		{"unknown option", "crash-stop,speed=2", ",", nil, `unknown fault option "speed"`},
		{"malformed number", "crash-stop;rate=abc", ";", nil, `fault option "rate"`},
		{"malformed repair", "crash-stop,repair=maybe", ",", nil, `fault option "repair"`},
		{"unknown kind", "meteor,rate=0.1", ",", nil, "unknown fault kind"},
		{"byzantine without count", "byzantine", ",", nil, "byzantine ≥ 1"},
		{"rate out of range", `{"kind":"crash-stop","rate":2}`, ",", nil, "fault rate"},
		{"truncated json", `{"kind":"crash-stop"`, ",", nil, "unexpected end"},
	}
	for _, c := range cases {
		got, err := ParseFaults(c.spec, c.sep)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: ParseFaults(%q) error = %v, want one containing %q", c.name, c.spec, err, c.err)
			}
			if got != nil {
				t.Errorf("%s: ParseFaults(%q) returned %+v alongside its error", c.name, c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: ParseFaults(%q): %v", c.name, c.spec, err)
			continue
		}
		if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
			t.Errorf("%s: ParseFaults(%q) = %+v, want %+v", c.name, c.spec, got, c.want)
		}
	}
}

func TestFaultsCanon(t *testing.T) {
	var nilF *Faults
	if got := nilF.Canon(); got != "" {
		t.Errorf("nil Canon = %q, want empty", got)
	}
	f := &Faults{Kind: "crash-stop", Rate: 0.25, Seed: 7, Repair: true}
	want := "kind=crash-stop;rate=0x1p-02;seed=7;byz=0;down=0x0p+00;repair=1"
	if got := f.Canon(); got != want {
		t.Errorf("Canon = %q, want %q", got, want)
	}
	// -0 normalizes: a spec differing only by float zero sign must collide.
	a := &Faults{Kind: "wake-drop", Rate: 0, Downtime: math.Copysign(0, -1)}
	b := &Faults{Kind: "wake-drop", Rate: 0, Downtime: 0}
	if a.Canon() != b.Canon() {
		t.Errorf("-0 not normalized: %q vs %q", a.Canon(), b.Canon())
	}
}

// TestSolveFaultedNilDelegates checks that a nil fault spec is byte-for-byte
// the fault-free solver: same makespan, same wake order, zero fault stats.
func TestSolveFaultedNilDelegates(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(11)), 40, 10)
	for _, alg := range faultAlgs() {
		base, _ := runAlg(t, alg, in, math.Inf(1))
		res, _ := solveFaulted(t, alg, in, nil, nil)
		if res.Makespan != base.Makespan || res.Awakened != base.Awakened {
			t.Errorf("%s: nil faults diverged: makespan %v vs %v", alg.Name(), res.Makespan, base.Makespan)
		}
		if res.Faults.Injected() != 0 {
			t.Errorf("%s: fault stats on nil plan: %+v", alg.Name(), res.Faults)
		}
	}
}

// TestCrashStopRepairCompletes is the headline resilience guarantee: under
// crash-stop faults with the repair layer armed, every algorithm still wakes
// the whole swarm (the source is fault-immune, so a live rescuer always
// exists), and the makespan inflation stays bounded.
func TestCrashStopRepairCompletes(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(5)), 60, 12)
	for _, alg := range faultAlgs() {
		base, _ := runAlg(t, alg, in, math.Inf(1))
		f := &Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42, Repair: true}
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			t.Errorf("%s: crash-stop with repair left %d asleep (faults %+v)",
				alg.Name(), in.N()-res.Awakened, res.Faults)
		}
		if res.Faults.CrashStops == 0 {
			t.Errorf("%s: rate 0.3 over %d robots injected no crashes", alg.Name(), in.N())
		}
		if res.Faults.Repairs == 0 {
			t.Errorf("%s: crashes occurred but no repairs dispatched", alg.Name())
		}
		// Bounded inflation: generous constant, but it must not blow up.
		if res.Makespan > 10*base.Makespan {
			t.Errorf("%s: repaired makespan %.4g vs fault-free %.4g exceeds 10x",
				alg.Name(), res.Makespan, base.Makespan)
		}
	}
}

// TestCrashStopNoRepairIncomplete pins the contrast: the same fault draw
// without the repair layer strands sleepers (crashed carriers take their
// subtrees with them).
func TestCrashStopNoRepairIncomplete(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(5)), 60, 12)
	f := &Faults{Kind: "crash-stop", Rate: 0.3, Seed: 42}
	stranded := false
	for _, alg := range faultAlgs() {
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			stranded = true
		}
	}
	if !stranded {
		t.Error("rate-0.3 crash-stop without repair completed on every algorithm; fault injection looks inert")
	}
}

func TestCrashRecoveryRepairCompletes(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(17)), 50, 10)
	for _, alg := range faultAlgs() {
		f := &Faults{Kind: "crash-recovery", Rate: 0.4, Seed: 7, Repair: true}
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			t.Errorf("%s: crash-recovery with repair left %d asleep (faults %+v)",
				alg.Name(), in.N()-res.Awakened, res.Faults)
		}
	}
}

func TestWakeDropRepairCompletes(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(23)), 50, 10)
	for _, alg := range faultAlgs() {
		f := &Faults{Kind: "wake-drop", Rate: 0.3, Seed: 3, Repair: true}
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			t.Errorf("%s: wake-drop with repair left %d asleep (faults %+v)",
				alg.Name(), in.N()-res.Awakened, res.Faults)
		}
		if res.Faults.WakeDrops == 0 {
			t.Errorf("%s: rate 0.3 injected no wake drops", alg.Name())
		}
	}
}

func TestWakeDupHarmless(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(29)), 40, 10)
	for _, alg := range faultAlgs() {
		f := &Faults{Kind: "wake-dup", Rate: 0.5, Seed: 13, Repair: true}
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			t.Errorf("%s: wake-dup left %d asleep", alg.Name(), in.N()-res.Awakened)
		}
	}
}

func TestByzantineRepairCompletes(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(31)), 50, 10)
	for _, alg := range faultAlgs() {
		f := &Faults{Kind: "byzantine", Byzantine: 3, Seed: 19, Repair: true}
		res, _ := solveFaulted(t, alg, in, f, nil)
		if !res.AllAwake {
			t.Errorf("%s: byzantine with repair left %d asleep (faults %+v)",
				alg.Name(), in.N()-res.Awakened, res.Faults)
		}
		if res.Faults.ByzTakeovers == 0 {
			t.Errorf("%s: 3 byzantine robots never took over a wake", alg.Name())
		}
	}
}

// TestFaultEventDeterminism: same instance + same fault seed must produce the
// identical fault event sequence and the identical repaired result.
func TestFaultEventDeterminism(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(37)), 50, 10)
	for _, kind := range []string{"crash-stop", "crash-recovery", "wake-drop", "byzantine"} {
		f := &Faults{Kind: kind, Rate: 0.35, Seed: 99, Repair: true}
		if kind == "byzantine" {
			f = &Faults{Kind: kind, Byzantine: 2, Seed: 99, Repair: true}
		}
		for _, alg := range faultAlgs() {
			run := func() (string, sim.Result) {
				var sb strings.Builder
				res, _ := solveFaulted(t, alg, in, f, func(ev sim.Event) {
					if strings.HasPrefix(ev.Kind, "fault-") || ev.Kind == "repair" {
						fmt.Fprintf(&sb, "%s@%d t=%v;", ev.Kind, ev.Robot, ev.T)
					}
				})
				return sb.String(), res
			}
			ev1, r1 := run()
			ev2, r2 := run()
			if ev1 != ev2 {
				t.Fatalf("%s/%s: fault event sequences diverged between identical runs", alg.Name(), kind)
			}
			if r1.Makespan != r2.Makespan || r1.Awakened != r2.Awakened || r1.Faults != r2.Faults {
				t.Fatalf("%s/%s: results diverged: %+v vs %+v", alg.Name(), kind, r1.Faults, r2.Faults)
			}
		}
	}
}

// TestFaultSeedsDiffer: different fault seeds draw different fault sets (the
// plan is actually consuming the seed, not a constant).
func TestFaultSeedsDiffer(t *testing.T) {
	in := instance.UniformDisk(rand.New(rand.NewSource(41)), 60, 10)
	f1 := &Faults{Kind: "crash-stop", Rate: 0.5, Seed: 1, Repair: true}
	f2 := &Faults{Kind: "crash-stop", Rate: 0.5, Seed: 2, Repair: true}
	r1, _ := solveFaulted(t, ASeparator{}, in, f1, nil)
	r2, _ := solveFaulted(t, ASeparator{}, in, f2, nil)
	if r1.Faults == r2.Faults && r1.Makespan == r2.Makespan {
		t.Error("seeds 1 and 2 produced identical fault stats and makespan; seed looks unused")
	}
}
