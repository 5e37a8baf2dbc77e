package instance

import (
	"math"
	"strings"
	"testing"

	"freezetag/internal/geom"
)

// A speedband/capband modifier must not perturb the base point stream: the
// profile RNG is salted off the family seed, so the modified family's points
// are byte-identical to the plain family's at every (n, param, seed).
func TestFamilyModifierKeepsPointsIdentical(t *testing.T) {
	for _, fam := range FamilyNames() {
		plain, err := Family(fam, 20, 1, 42)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		mod, err := Family(fam+"+speedband:0.25+capband:30", 20, 1, 42)
		if err != nil {
			t.Fatalf("%s modified: %v", fam, err)
		}
		if plain.Source != mod.Source || len(plain.Points) != len(mod.Points) {
			t.Fatalf("%s: modifier changed the instance shape", fam)
		}
		for i := range plain.Points {
			if plain.Points[i] != mod.Points[i] {
				t.Errorf("%s: point %d moved: %v vs %v", fam, i, plain.Points[i], mod.Points[i])
			}
		}
		if plain.Heterogeneous() {
			t.Errorf("%s: plain family grew profiles", fam)
		}
		if !mod.Heterogeneous() {
			t.Errorf("%s: modified family has no profiles", fam)
		}
	}
}

func TestFamilyModifierProfiles(t *testing.T) {
	in, err := Family("line+speedband:0.25+capband:30", 40, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("generated profiles invalid: %v", err)
	}
	if !strings.HasSuffix(in.Name, "+speedband:0.25+capband:30") {
		t.Errorf("name lacks canonical modifier suffix: %q", in.Name)
	}
	for i, p := range in.Profiles {
		if p.Speed < 0.25 || p.Speed > 1 {
			t.Errorf("profile %d speed %g outside [0.25, 1]", i, p.Speed)
		}
		if p.Capacity < 15 || p.Capacity > 30 {
			t.Errorf("profile %d capacity %g outside [15, 30]", i, p.Capacity)
		}
	}
	if ms := in.MinSpeed(); ms >= 1 || ms < 0.25 {
		t.Errorf("MinSpeed %g outside (0.25, 1) band", ms)
	}
	// speedband > 1 means faster-than-unit robots: speeds in [1, s].
	fast, err := Family("line+speedband:3", 40, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fast.Profiles {
		if p.Speed < 1 || p.Speed > 3 {
			t.Errorf("fast profile %d speed %g outside [1, 3]", i, p.Speed)
		}
	}
	if ms := fast.MinSpeed(); ms != 1 {
		// MinSpeed caps at 1: speeds above unit never loosen the bounds.
		t.Errorf("MinSpeed with all-fast profiles = %g, want 1", ms)
	}
}

// Modifier spellings normalize: order-insensitive, case-insensitive, same
// canonical name — so two spellings of one modified family produce equal
// instances and therefore equal request hashes.
func TestFamilyModifierNormalization(t *testing.T) {
	a, err := Family("walk+speedband:0.5+capband:8", 12, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Family("WALK+capband:8+Speedband:0.5", 12, 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Errorf("names differ: %q vs %q", a.Name, b.Name)
	}
	ha := HashRequestFaulted(nil, "agrid", a, 1, 8, a.N(), 0, "")
	hb := HashRequestFaulted(nil, "agrid", b, 1, 8, b.N(), 0, "")
	if ha != hb {
		t.Errorf("hashes differ for equivalent spellings:\n %s\n %s", ha, hb)
	}
}

func TestFamilyModifierErrors(t *testing.T) {
	for _, name := range []string{
		"line+speedband",               // no value
		"line+speedband:0",             // not positive
		"line+speedband:-2",            // negative
		"line+speedband:inf",           // infinite
		"line+speedband:nan",           // NaN
		"line+turbo:2",                 // unknown modifier
		"line+speedband:1+speedband:2", // duplicate
		"line+capband:3+capband:3",     // duplicate
	} {
		if _, err := Family(name, 8, 1, 1); err == nil {
			t.Errorf("Family(%q) accepted", name)
		}
	}
}

func TestValidate(t *testing.T) {
	in, err := Family("line", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("homogeneous instance invalid: %v", err)
	}
	badProfiles := []struct {
		desc string
		ps   []Profile
	}{
		{"length mismatch", []Profile{{Speed: 1}}},
		{"zero speed", []Profile{{Speed: 1}, {Speed: 0}, {Speed: 1}, {Speed: 1}}},
		{"negative speed", []Profile{{Speed: 1}, {Speed: -1}, {Speed: 1}, {Speed: 1}}},
		{"NaN capacity", []Profile{{Speed: 1, Capacity: math.NaN()}, {Speed: 1}, {Speed: 1}, {Speed: 1}}},
	}
	for _, c := range badProfiles {
		cp := *in
		cp.Profiles = c.ps
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", c.desc)
		}
	}
	// Negative capacity is legal: it means "inherit the uniform budget".
	ok := *in
	ok.Profiles = []Profile{{Speed: 1, Capacity: -2}, {Speed: 1}, {Speed: 1}, {Speed: 1}}
	if err := ok.Validate(); err != nil {
		t.Errorf("negative capacity (inherit) rejected: %v", err)
	}

	// Geometry outside ±MaxCoord, or not finite, is refused and the error
	// names the robot (the source is robot 0, Points[i] is robot i+1).
	past := math.Nextafter(MaxCoord, math.Inf(1))
	badGeometry := []struct {
		desc   string
		source geom.Point
		robot  geom.Point // replaces Points[1], robot 2
		want   string
	}{
		{"NaN x", geom.Origin, geom.Pt(math.NaN(), 0), "robot 2 at (NaN, 0)"},
		{"NaN y", geom.Origin, geom.Pt(0, math.NaN()), "robot 2 at (0, NaN)"},
		{"+Inf", geom.Origin, geom.Pt(math.Inf(1), 0), "robot 2 at (+Inf, 0)"},
		{"-Inf", geom.Origin, geom.Pt(0, math.Inf(-1)), "robot 2 at (0, -Inf)"},
		{"just past 2³¹", geom.Origin, geom.Pt(past, 0), "robot 2 at (2.1474836480000005e+09, 0)"},
		{"just past -2³¹", geom.Origin, geom.Pt(0, -past), "robot 2 at (0, -2.1474836480000005e+09)"},
		{"1e308", geom.Origin, geom.Pt(1e308, 0), "robot 2 at (1e+308, 0)"},
		{"source out of range", geom.Pt(-past, 0), geom.Pt(2, 0), "source at (-2.1474836480000005e+09, 0)"},
		{"source NaN", geom.Pt(math.NaN(), math.NaN()), geom.Pt(2, 0), "source at (NaN, NaN)"},
	}
	for _, c := range badGeometry {
		cp := *in
		cp.Source = c.source
		cp.Points = append([]geom.Point(nil), in.Points...)
		cp.Points[1] = c.robot
		err := cp.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", c.desc)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "±2³¹") {
			t.Errorf("%s: error %q does not name %q and the bound", c.desc, err, c.want)
		}
	}
	// Exactly ±2³¹ is inside the model.
	edge := *in
	edge.Source = geom.Pt(-MaxCoord, MaxCoord)
	edge.Points = []geom.Point{geom.Pt(MaxCoord, -MaxCoord), geom.Pt(-MaxCoord, 0), geom.Pt(0, MaxCoord), geom.Origin}
	if err := edge.Validate(); err != nil {
		t.Errorf("coordinates at exactly ±2³¹ rejected: %v", err)
	}
}
