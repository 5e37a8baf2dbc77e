package instance

import (
	"strings"
	"testing"

	"freezetag/internal/geom"
)

// A fault-free request must keep its exact pre-fault cache key: an empty
// faults line leaves the encoding at v1–v3, for every fixture of the
// metric-and-profiles golden set (all metrics, inline and family instances,
// every algorithm, the portfolio descriptor).
func TestHashFaultedEmptyLineCompat(t *testing.T) {
	for _, f := range loadHashFixturesPR5(t) {
		in := f.instance(t)
		m := f.metric(t)
		if got := HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
			t.Errorf("%s: empty faults line changed the key:\n got  %s\n want %s", f.Desc, got, f.Hash)
		}
	}
}

// A non-empty faults line is part of the request identity: it must change
// the hash (v4 encoding), distinct lines must produce distinct hashes, and
// equal lines equal ones — independent of whether the base request was v1,
// v2, or v3.
func TestHashFaultedDistinguishes(t *testing.T) {
	lines := []string{
		"kind=crash-stop;rate=0x1p-02;seed=7;byz=0;down=0x0p+00;repair=1",
		"kind=crash-stop;rate=0x1p-02;seed=8;byz=0;down=0x0p+00;repair=1",
		"kind=wake-drop;rate=0x1p-02;seed=7;byz=0;down=0x0p+00;repair=0",
	}
	for _, f := range loadHashFixturesPR5(t)[:3] {
		in := f.instance(t)
		m := f.metric(t)
		seen := map[string]string{f.Hash: "fault-free"}
		for _, line := range lines {
			h := HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, line)
			if prev, dup := seen[h]; dup {
				t.Errorf("%s: faults line %q collides with %s", f.Desc, line, prev)
			}
			seen[h] = line
			if h2 := HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, line); h2 != h {
				t.Errorf("%s: faulted hash not deterministic", f.Desc)
			}
		}
	}
}

// Faulted hashes keep the sha256-hex shape shared by every version of the
// encoding — clients key caches by the string, so the format must not drift.
func TestHashFaultedShape(t *testing.T) {
	f := loadHashFixturesPR5(t)[0]
	h := HashRequestFaulted(f.metric(t), f.Alg, f.instance(t), f.Ell, f.Rho, f.TupN, f.Budget,
		"kind=byzantine;rate=0x0p+00;seed=1;byz=2;down=0x0p+00;repair=1")
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Errorf("faulted hash %q is not lowercase sha256 hex", h)
	}
}

// Faulted keys are pinned like the fault-free goldens: v4 requests under ℓ2,
// under ℓ1, and with per-robot profiles must keep their exact cache keys.
func TestHashFaultedGolden(t *testing.T) {
	const line = "kind=crash-stop;rate=0x1p-02;seed=7;byz=0;down=0x0p+00;repair=1"
	walk, err := Family("walk", 12, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := Family("walk+speedband:0.5+capband:20", 12, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		desc   string
		m      geom.Metric
		in     *Instance
		budget float64
		want   string
	}{
		{"l2", nil, walk, 17.5, "362c7f5205022447a94fc56dec10343a233fe7d6541a7c31d029b9439c4392d4"},
		{"l1", geom.L1, walk, 0, "d543558597afa55ac8624f7b629099427b7313fd12ecdbe0bd16ff20efbc45fa"},
		{"profiles", nil, profiled, -1, "561cc5daa68e0a61fe34b07f0646f9134821c35dad5bb9868f02fe2667a1ab15"},
	} {
		if got := HashRequestFaulted(c.m, "AGrid", c.in, 2, 5, 12, c.budget, line); got != c.want {
			t.Errorf("%s: faulted key changed:\n got  %s\n want %s", c.desc, got, c.want)
		}
	}
}
