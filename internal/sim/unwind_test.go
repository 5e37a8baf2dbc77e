package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"freezetag/internal/arena"
	"freezetag/internal/geom"
)

// unwindSleepers are three robots co-located half a unit from the source.
var unwindSleepers = []geom.Point{geom.Pt(0.5, 0), geom.Pt(0.5, 0), geom.Pt(0.5, 0)}

// spawnUnwindProgram installs a source that wakes robot 1, robot 2 and
// robot 3 onto bodies that, by t = 1.5, leave robot 1 parked (on a barrier
// no one else reaches, when park is set), robot 2 scheduled at 3.5 and
// robot 3 finished, with the source itself scheduled at 2.5.
func spawnUnwindProgram(t *testing.T, e *Engine, park bool) {
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(0.5, 0)); err != nil {
			t.Errorf("move: %v", err)
			return
		}
		p.Wake(1, func(q *Proc) {
			if park {
				q.Await(&Barrier{Need: 2}, "never")
			}
		})
		p.Wake(2, func(q *Proc) { q.Wait(3) })
		p.Wake(3, func(q *Proc) { q.Wait(1) })
		p.Wait(2)
	})
}

// However a run ends — cancelled with one process parked on a barrier and
// one scheduled, deadlocked, or completed on an engine no arena owns — and
// when the arena owning a pooled engine closes, every process coroutine has
// finished by the time the call returns: the goroutine count is back at
// its starting value at once, with no sleep or polling.
func TestRunLeavesNoGoroutine(t *testing.T) {
	// The previous test's goroutine may still be exiting when this one
	// starts, so the count can fall below its first reading; only a rise
	// above the lowest count seen so far is a leak.
	before := runtime.NumGoroutine()
	check := func(trial int, what string) {
		t.Helper()
		n := runtime.NumGoroutine()
		if n > before {
			t.Fatalf("trial %d: %d goroutines after %s, %d before", trial, n, what, before)
		}
		before = n
	}
	for trial := 0; trial < 200; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		e := NewEngine(Config{Source: geom.Origin, Sleepers: unwindSleepers, Trace: func(ev Event) {
			if ev.Kind == "done" && ev.Robot == 3 {
				cancel()
			}
		}})
		spawnUnwindProgram(t, e, true)
		if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
			t.Fatalf("trial %d: err = %v, want ErrCancelled", trial, err)
		}
		cancel()
		check(trial, "a cancelled run")

		e = NewEngine(Config{Source: geom.Origin, Sleepers: unwindSleepers})
		spawnUnwindProgram(t, e, true)
		if _, err := e.Run(); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("trial %d: err = %v, want ErrDeadlock", trial, err)
		}
		check(trial, "a deadlocked run")

		e = NewEngine(Config{Source: geom.Origin, Sleepers: unwindSleepers})
		spawnUnwindProgram(t, e, false)
		if res, err := e.Run(); err != nil || !res.AllAwake {
			t.Fatalf("trial %d: completed run: %+v, %v", trial, res, err)
		}
		check(trial, "a completed one-shot run")

		a := arena.New("unwind")
		for range 2 {
			e = NewEngineIn(a, Config{Source: geom.Origin, Sleepers: unwindSleepers})
			spawnUnwindProgram(t, e, false)
			if _, err := e.Run(); err != nil {
				t.Fatalf("trial %d: pooled run: %v", trial, err)
			}
		}
		a.Close()
		check(trial, "closing a pooled engine's arena")
	}
}

// explodeInHelper is the named frame a process panics in.
func explodeInHelper() { panic("boom") }

// A panicking process body ends the run with an error instead of the
// program: RunCtx returns ErrProcessPanic, whose *PanicError keeps the
// stack naming the frame that panicked, having unwound the other processes
// — one parked on a barrier, one scheduled — on a one-shot engine and on a
// pooled one, which its arena then replaces. The error's text is one line,
// the same on both engines.
func TestRunReturnsProcessPanic(t *testing.T) {
	a := arena.New("panic")
	defer a.Close()
	cfg := Config{Source: geom.Origin, Sleepers: unwindSleepers}
	var texts []string
	for _, pooled := range []bool{false, true} {
		before := runtime.NumGoroutine()
		e := NewEngine(cfg)
		if pooled {
			e = NewEngineIn(a, cfg)
		}
		e.Spawn(SourceID, func(p *Proc) {
			if err := p.MoveTo(geom.Pt(0.5, 0)); err != nil {
				t.Errorf("move: %v", err)
				return
			}
			p.Wake(1, func(q *Proc) { q.Await(&Barrier{Need: 2}, "never") })
			p.Wake(2, func(q *Proc) { q.Wait(5) })
			p.Wait(1)
			explodeInHelper()
		})
		res, err := e.Run()
		if !errors.Is(err, ErrProcessPanic) {
			t.Fatalf("pooled %v: err = %v, want ErrProcessPanic", pooled, err)
		}
		for _, want := range []string{"robot 0", "boom"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("pooled %v: error does not mention %q:\n%v", pooled, want, err)
			}
		}
		texts = append(texts, err.Error())
		var perr *PanicError
		if !errors.As(err, &perr) || perr.Robot != 0 || perr.Value != "boom" {
			t.Errorf("pooled %v: err = %#v, want a *PanicError for robot 0 and value boom", pooled, err)
		} else if !strings.Contains(string(perr.Stack), "explodeInHelper") {
			t.Errorf("pooled %v: stack does not name the helper:\n%s", pooled, perr.Stack)
		}
		if res.Awakened != 2 || res.Duration != 1.5 {
			t.Errorf("pooled %v: partial result = %+v, want 2 awake at t = 1.5", pooled, res)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("pooled %v: %d goroutines after the run, %d before", pooled, n, before)
		}
		if pooled && NewEngineIn(a, cfg) == e {
			t.Error("the arena hands out again the engine whose run panicked")
		}
	}
	if texts[0] != texts[1] || strings.Contains(texts[0], "\n") {
		t.Errorf("the one-shot and the pooled run's errors differ or span lines:\n%q\n%q", texts[0], texts[1])
	}
}
