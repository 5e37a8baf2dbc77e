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

// WriteEventsNDJSON emits events as newline-delimited JSON, one event
// object per line; no events write nothing. The encoding is deterministic:
// equal event streams produce equal bytes. A Recorder's events come from
// its Events method; the solver service streams a replayed trace this way.
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
