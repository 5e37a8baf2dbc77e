package instance

import (
	"encoding/json"
	"os"
	"testing"

	"freezetag/internal/geom"
)

// hashFixturePR5 is one locked pre-heterogeneity (PR 5) request hash. The
// fixtures in testdata/hash_golden_pr5.json were generated by running the
// PR 5 HashRequestIn verbatim; they cover every built-in metric plus the v1
// (omitted/ℓ2) spelling, inline and family-generated instances, all four
// algorithms plus a portfolio descriptor, and the negative-budget
// normalization. None carry profiles — profile-free requests must keep
// their v1/v2 cache keys forever.
type hashFixturePR5 struct {
	Desc   string  `json:"desc"`
	Alg    string  `json:"alg"`
	Metric string  `json:"metric,omitempty"` // empty = the v1 ℓ2 encoding
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

func loadHashFixturesPR5(t *testing.T) []hashFixturePR5 {
	t.Helper()
	data, err := os.ReadFile("testdata/hash_golden_pr5.json")
	if err != nil {
		t.Fatal(err)
	}
	var fs []hashFixturePR5
	if err := json.Unmarshal(data, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs) < 10 {
		t.Fatalf("only %d fixtures — the golden set was truncated", len(fs))
	}
	return fs
}

func (f hashFixturePR5) metric(t *testing.T) geom.Metric {
	t.Helper()
	if f.Metric == "" {
		return nil
	}
	m, err := geom.ParseMetric(f.Metric)
	if err != nil {
		t.Fatalf("%s: %v", f.Desc, err)
	}
	return m
}

func (f hashFixturePR5) instance(t *testing.T) *Instance {
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

// Every homogeneous canonical request encoding — nil Profiles, any metric —
// must hash byte-identically to its PR 5 value: these hashes are live cache
// keys held by clients of the solver service, and the heterogeneity refactor
// is not allowed to invalidate them. An empty-but-non-nil Profiles slice is
// the same homogeneous request and must share the key.
func TestHashCompatPR5Golden(t *testing.T) {
	for _, f := range loadHashFixturesPR5(t) {
		in := f.instance(t)
		m := f.metric(t)
		if got := HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
			t.Errorf("%s: hash changed:\n got  %s\n want %s", f.Desc, got, f.Hash)
		}
		withEmpty := *in
		withEmpty.Profiles = []Profile{}
		if got := HashRequestFaulted(m, f.Alg, &withEmpty, f.Ell, f.Rho, f.TupN, f.Budget, ""); got != f.Hash {
			t.Errorf("%s: empty (non-nil) Profiles changed the key:\n got  %s\n want %s",
				f.Desc, got, f.Hash)
		}
	}
}

// Profiles are part of the request identity: attaching them bumps the
// encoding to v3 and must change the hash, and any single-field change to
// any single profile must change it again. Unit profiles are still a
// different request from no profiles — the v3 line records what was asked,
// not what it simplifies to.
func TestHashProfilesDistinguish(t *testing.T) {
	f := loadHashFixturesPR5(t)[0]
	base := f.instance(t)
	m := f.metric(t)
	hash := func(in *Instance) string {
		return HashRequestFaulted(m, f.Alg, in, f.Ell, f.Rho, f.TupN, f.Budget, "")
	}
	uniform := func(speed, cap float64) *Instance {
		cp := *base
		cp.Profiles = make([]Profile, base.N())
		for i := range cp.Profiles {
			cp.Profiles[i] = Profile{Speed: speed, Capacity: cap}
		}
		return &cp
	}
	seen := map[string]string{hash(base): "homogeneous"}
	cases := []struct {
		name string
		in   *Instance
	}{
		{"unit profiles", uniform(1, 0)},
		{"half speed", uniform(0.5, 0)},
		{"unit speed capacity 3", uniform(1, 3)},
	}
	one := uniform(1, 0)
	one.Profiles[1].Speed = 0.25
	cases = append(cases, struct {
		name string
		in   *Instance
	}{"single robot slowed", one})
	for _, c := range cases {
		h := hash(c.in)
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s: %s", c.name, prev, h)
		}
		seen[h] = c.name
	}
}

// Profile order is significant: Profiles[i] belongs to Points[i], so
// swapping two distinct profiles is a different request.
func TestHashProfileOrderSignificant(t *testing.T) {
	f := loadHashFixturesPR5(t)[0]
	base := f.instance(t)
	cp := *base
	cp.Profiles = make([]Profile, base.N())
	for i := range cp.Profiles {
		cp.Profiles[i] = Profile{Speed: 1}
	}
	cp.Profiles[0].Speed = 0.5
	a := HashRequestFaulted(nil, f.Alg, &cp, f.Ell, f.Rho, f.TupN, f.Budget, "")
	cp.Profiles[0].Speed, cp.Profiles[1].Speed = 1, 0.5
	b := HashRequestFaulted(nil, f.Alg, &cp, f.Ell, f.Rho, f.TupN, f.Budget, "")
	if a == b {
		t.Errorf("swapping profiles 0 and 1 kept the hash %s", a)
	}
}
