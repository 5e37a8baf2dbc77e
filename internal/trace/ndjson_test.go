package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"freezetag/internal/geom"
	"freezetag/internal/sim"
)

func TestWriteNDJSONGolden(t *testing.T) {
	r := New()
	r.Record(sim.Event{T: 0, Robot: 0, Kind: "spawn", Pos: geom.Pt(0, 0)})
	r.Record(sim.Event{T: 1.5, Robot: 0, Kind: "move", Pos: geom.Pt(1, -0.5), Extra: "to=1,-0.5"})
	r.Record(sim.Event{T: 1.5, Robot: 3, Kind: "wake", Pos: geom.Pt(1, -0.5)})

	var buf bytes.Buffer
	if err := WriteEventsNDJSON(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"t":0,"robot":0,"kind":"spawn","x":0,"y":0}`,
		`{"t":1.5,"robot":0,"kind":"move","x":1,"y":-0.5,"extra":"to=1,-0.5"}`,
		`{"t":1.5,"robot":3,"kind":"wake","x":1,"y":-0.5}`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("ndjson output:\n got  %q\n want %q", got, want)
	}
}

func TestWriteNDJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEventsNDJSON(&buf, New().Events()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty recorder wrote %q", buf.String())
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after--
	return len(p), nil
}

func TestWriteNDJSONWriterError(t *testing.T) {
	r := New()
	r.Record(sim.Event{Kind: "spawn"})
	r.Record(sim.Event{Kind: "wake"})

	err := WriteEventsNDJSON(&failWriter{after: 1}, r.Events())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("writer error not propagated: %v", err)
	}
}

func TestWriteNDJSONDeterministic(t *testing.T) {
	r := New()
	r.Record(sim.Event{T: 2, Robot: 1, Kind: "look", Pos: geom.Pt(0.25, 0.75), Extra: "r=1"})
	var a, b bytes.Buffer
	if err := WriteEventsNDJSON(&a, r.Events()); err != nil {
		t.Fatal(err)
	}
	if err := WriteEventsNDJSON(&b, r.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same recorder differ")
	}
}
