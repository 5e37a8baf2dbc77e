package instance

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"freezetag/internal/geom"
)

func testInstance() *Instance {
	return &Instance{
		Name:   "canon",
		Source: geom.Origin,
		Points: []geom.Point{geom.Pt(1, 0), geom.Pt(0.5, -2.25), geom.Pt(1e-9, 3)},
	}
}

// The canonical request hash is the cache key of the solver service: it must
// be a pure function of (algorithm, instance, tuple, budget) and nothing
// else. The golden value locks the encoding — if it changes, bump
// canonVersion and update here.
func TestHashRequestGolden(t *testing.T) {
	const want = "c8bafa151788a565e606d322a908d1413cad24d4bb9f73a21d30a1cfeea8fcaa"
	got := HashRequestFaulted(nil, "agrid", testInstance(), 1, 3, 3, 0, "")
	if got != want {
		t.Fatalf("canonical hash changed:\n got  %s\n want %s", got, want)
	}
}

func TestHashRequestDeterministic(t *testing.T) {
	a := HashRequestFaulted(nil, "awave", testInstance(), 2, 5, 3, 1.5, "")
	b := HashRequestFaulted(nil, "awave", testInstance(), 2, 5, 3, 1.5, "")
	if a != b {
		t.Fatalf("identical requests hashed differently: %s vs %s", a, b)
	}
}

func TestHashRequestDistinguishes(t *testing.T) {
	base := func() *Instance { return testInstance() }
	ref := HashRequestFaulted(nil, "agrid", base(), 1, 3, 3, 0, "")

	mutants := map[string]string{}
	mutants["algorithm"] = HashRequestFaulted(nil, "awave", base(), 1, 3, 3, 0, "")
	mutants["ell"] = HashRequestFaulted(nil, "agrid", base(), 2, 3, 3, 0, "")
	mutants["rho"] = HashRequestFaulted(nil, "agrid", base(), 1, 4, 3, 0, "")
	mutants["n"] = HashRequestFaulted(nil, "agrid", base(), 1, 3, 4, 0, "")
	mutants["budget"] = HashRequestFaulted(nil, "agrid", base(), 1, 3, 3, 7, "")

	renamed := base()
	renamed.Name = "other"
	mutants["name"] = HashRequestFaulted(nil, "agrid", renamed, 1, 3, 3, 0, "")

	moved := base()
	moved.Points[1] = geom.Pt(0.5, -2.250000001)
	mutants["point"] = HashRequestFaulted(nil, "agrid", moved, 1, 3, 3, 0, "")

	reordered := base()
	reordered.Points[0], reordered.Points[1] = reordered.Points[1], reordered.Points[0]
	mutants["order"] = HashRequestFaulted(nil, "agrid", reordered, 1, 3, 3, 0, "")

	seen := map[string]string{ref: "reference"}
	for field, h := range mutants {
		if prev, dup := seen[h]; dup {
			t.Errorf("mutating %s collided with %s: %s", field, prev, h)
		}
		seen[h] = field
	}
}

func TestHashRequestNormalizesFloats(t *testing.T) {
	pos := testInstance()
	neg := testInstance()
	neg.Source = geom.Pt(math.Copysign(0, -1), 0) // -0.0 must hash like +0.0
	if HashRequestFaulted(nil, "agrid", pos, 1, 3, 3, 0, "") != HashRequestFaulted(nil, "agrid", neg, 1, 3, 3, 0, "") {
		t.Fatal("-0.0 and +0.0 hash differently")
	}
	// All non-positive budgets mean "unconstrained" and share a key.
	if HashRequestFaulted(nil, "agrid", pos, 1, 3, 3, 0, "") != HashRequestFaulted(nil, "agrid", pos, 1, 3, 3, -5, "") {
		t.Fatal("budget 0 and budget -5 hash differently")
	}
}

// Save/Load must round-trip exactly and the on-disk encoding must be stable
// byte-for-byte — the prerequisite for content-addressing requests that
// arrive as files. (instance_test.go checks value round-tripping; this locks
// the bytes and the field order.)
func TestSaveLoadCanonicalStability(t *testing.T) {
	in := testInstance()
	path := filepath.Join(t.TempDir(), "canon.json")
	if err := in.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip changed the instance:\n saved  %+v\n loaded %+v", in, got)
	}

	a, err := in.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical marshal unstable across a round trip:\n%s\nvs\n%s", a, b)
	}

	// Field order is part of the contract: name, then source, then points.
	s := string(a)
	iName, iSource, iPoints := strings.Index(s, `"name"`), strings.Index(s, `"source"`), strings.Index(s, `"points"`)
	if iName < 0 || iSource < 0 || iPoints < 0 || !(iName < iSource && iSource < iPoints) {
		t.Fatalf("field order not (name, source, points):\n%s", s)
	}
}

func TestFamilyGenerators(t *testing.T) {
	for _, name := range FamilyNames() {
		in, err := Family(name, 16, 1.0, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if in.N() == 0 {
			t.Fatalf("%s: empty instance", name)
		}
		again, err := Family(name, 16, 1.0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, again) {
			t.Fatalf("%s: not deterministic for equal (n, param, seed)", name)
		}
	}
	if _, err := Family("nope", 16, 1.0, 7); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := Family("line", 0, 1.0, 7); err == nil {
		t.Fatal("n=0 accepted")
	}
	// Past MaxFamilyN the request is refused before any point is generated:
	// n = 2^40 would otherwise ask for a 16 TiB slice and kill the process.
	for _, n := range []int{MaxFamilyN + 1, 1 << 40} {
		if _, err := Family("line", n, 1.0, 7); err == nil {
			t.Fatalf("n=%d accepted (bound %d)", n, MaxFamilyN)
		}
	}
	if _, err := Family("line", 4, 0, 7); err == nil {
		t.Fatal("param=0 accepted")
	}
	if _, err := Family("line", 4, math.NaN(), 7); err == nil {
		t.Fatal("param=NaN accepted")
	}
	if _, err := Family("line", 4, math.Inf(1), 7); err == nil {
		t.Fatal("param=+Inf accepted")
	}
}
