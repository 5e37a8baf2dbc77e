package experiments

import (
	"os"
	"strings"
	"testing"
)

// quickTablesPath pins every quick-scale table at DefaultSeed, rendered as
// `dftp-bench -scale quick -ablations` prints them, without the closing
// timing line.
const quickTablesPath = "testdata/quick_tables.txt"

// Every experiment and ablation table renders byte for byte as pinned, so
// a change to the simulator or to an algorithm that moves any number of any
// table fails here, F1's phase split, read off the reorganization barriers
// of a trace, included.
func TestQuickTablesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(quickTablesPath)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	tables, err := r.All(Quick)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := r.Ablations(Quick)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tb := range append(tables, abl...) {
		if err := tb.Render(&got); err != nil {
			t.Fatal(err)
		}
		got.WriteByte('\n')
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got  %q\n want %q", quickTablesPath, i+1, g, w)
		}
	}
}
