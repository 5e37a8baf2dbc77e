package instance

import (
	"encoding/json"
	"os"
	"testing"

	"freezetag/internal/geom"
)

// hashFixture is one locked pre-metric-refactor (PR 3) request hash. The
// fixtures in testdata/hash_golden_pr3.json were generated by running the
// PR 3 HashRequest verbatim; they cover inline and family-generated
// instances, all four algorithms plus a portfolio descriptor, and the
// negative-budget normalization.
type hashFixture struct {
	Desc   string  `json:"desc"`
	Alg    string  `json:"alg"`
	Family string  `json:"family,omitempty"` // empty = the inline test instance
	N      int     `json:"n,omitempty"`
	Param  float64 `json:"param,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	Ell    float64 `json:"ell"`
	Rho    float64 `json:"rho"`
	TupN   int     `json:"tupN"`
	Budget float64 `json:"budget"`
	Hash   string  `json:"hash"`
}

func loadHashFixtures(t *testing.T) []hashFixture {
	t.Helper()
	data, err := os.ReadFile("testdata/hash_golden_pr3.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs []hashFixture
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs) < 8 {
		t.Fatalf("only %d fixtures — the golden set was truncated", len(fs))
	}
	return fs
}

func (f hashFixture) instance(t *testing.T) *Instance {
	t.Helper()
	if f.Family == "" {
		return testInstance()
	}
	in, err := Family(f.Family, f.N, f.Param, f.Seed)
	if err != nil {
		t.Fatalf("%s: %v", f.Desc, err)
	}
	return in
}

// Every pre-refactor canonical request encoding — i.e. every request with an
// omitted or explicit ℓ2 metric — must hash byte-identically to its PR 3
// value: these hashes are live cache keys held by clients of the solver
// service, and the metric refactor is not allowed to invalidate them.
func TestHashCompatPR3Golden(t *testing.T) {
	for _, f := range loadHashFixtures(t) {
		in := f.instance(t)
		// The nil-metric and explicit-ℓ2 spellings are the same request.
		if got := HashRequestFaulted(nil, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
			t.Errorf("%s: nil-metric hash changed:\n got  %s\n want %s", f.Desc, got, f.Hash)
		}
		if got := HashRequestFaulted(geom.L2, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
			t.Errorf("%s: ℓ2 hash changed:\n got  %s\n want %s", f.Desc, got, f.Hash)
		}
	}
}

// Non-ℓ2 metrics must hash differently from ℓ2 (they are different solves)
// and differently from each other, and the metric must be the only thing
// that changed — lp:2 normalizes to ℓ2 and keeps the v1 key.
func TestHashMetricDistinguishes(t *testing.T) {
	f := loadHashFixtures(t)[0]
	in := f.instance(t)
	seen := map[string]string{f.Hash: "l2"}
	for _, name := range []string{"l1", "linf", "lp:2.5"} {
		m, err := geom.ParseMetric(name)
		if err != nil {
			t.Fatal(err)
		}
		h := HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, "")
		if prev, dup := seen[h]; dup {
			t.Errorf("metric %s collides with %s: %s", name, prev, h)
		}
		seen[h] = name
	}
	lp2, err := geom.ParseMetric("lp:2")
	if err != nil {
		t.Fatal(err)
	}
	if got := HashRequestFaulted(lp2, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
		t.Errorf("lp:2 should normalize to the ℓ2 key:\n got  %s\n want %s", got, f.Hash)
	}
}
