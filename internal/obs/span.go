package obs

import (
	"strconv"
	"time"
)

// Span is a zero-allocation stopwatch for a request's per-stage breakdown:
// start one with StartSpan and call Mark at each stage boundary; Mark
// returns the stage's duration for the caller to record. Spans are plain
// values — copy them, embed them, keep them on the stack. A span must not
// be shared across goroutines.
type Span struct {
	begin time.Time
	mark  time.Time
}

// StartSpan begins a span at the current time.
func StartSpan() Span {
	now := time.Now()
	return Span{begin: now, mark: now}
}

// Mark closes the stage running since the previous mark (or the span
// start) and returns its duration.
func (s *Span) Mark() time.Duration {
	now := time.Now()
	d := now.Sub(s.mark)
	s.mark = now
	return d
}

// Total returns the time elapsed since the span started.
func (s *Span) Total() time.Duration { return time.Since(s.begin) }

// Begin returns the span's start time — the anchor a trace's relative
// offsets are measured from.
func (s *Span) Begin() time.Time { return s.begin }

// AppendServerTiming appends one Server-Timing metric — `name;dur=1.234`,
// duration in milliseconds per the header's spec — to b, preceded by ", "
// when b is non-empty. Building the header value with it costs one
// allocation for the caller's buffer, never per metric.
func AppendServerTiming(b []byte, name string, d time.Duration) []byte {
	if len(b) > 0 {
		b = append(b, ',', ' ')
	}
	b = append(b, name...)
	b = append(b, ";dur="...)
	return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 3, 64)
}
