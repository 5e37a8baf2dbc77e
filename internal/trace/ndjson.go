package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"freezetag/internal/sim"
)

// ndjsonEvent is the wire form of one event line. Field order is fixed by
// the struct declaration, so identical recordings always serialize to
// identical bytes — the solver service streams these from its replays.
type ndjsonEvent struct {
	T     float64 `json:"t"`
	Robot int     `json:"robot"`
	Kind  string  `json:"kind"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Extra string  `json:"extra,omitempty"`
}

// WriteNDJSON emits all events as newline-delimited JSON, one event object
// per line. An empty recorder writes nothing. The encoding is deterministic:
// equal event streams produce equal bytes.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	return WriteEventsNDJSON(w, r.events)
}

// WriteEventsNDJSON is WriteNDJSON over a bare event slice, for callers
// that hold recorded events without a Recorder (e.g. the solver service
// streaming a replayed trace).
func WriteEventsNDJSON(w io.Writer, events []sim.Event) error {
	for _, ev := range events {
		line, err := json.Marshal(ndjsonEvent{
			T: ev.T, Robot: ev.Robot, Kind: ev.Kind,
			X: ev.Pos.X, Y: ev.Pos.Y, Extra: ev.Extra,
		})
		if err != nil {
			return fmt.Errorf("trace: ndjson: %w", err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("trace: ndjson write: %w", err)
		}
	}
	return nil
}
