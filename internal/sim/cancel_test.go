package sim

import (
	"context"
	"errors"
	"testing"

	"freezetag/internal/geom"
)

// Cancelling mid-run stops the event loop at the next dispatch, unwinds the
// live process, and returns the partial result with ErrCancelled.
func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	moves := 0
	e := NewEngine(Config{Source: geom.Origin, Trace: func(ev Event) {
		if ev.Kind == "move" {
			moves++
			if moves == 3 {
				cancel()
			}
		}
	}})
	steps := 0
	e.Spawn(SourceID, func(p *Proc) {
		for i := 0; i < 100; i++ {
			if err := p.MoveTo(geom.Pt(float64(i%7), float64(i%5))); err != nil {
				t.Errorf("move: %v", err)
				return
			}
			steps++
		}
	})
	res, err := e.RunCtx(ctx)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if steps >= 100 {
		t.Fatal("cancelled run executed the whole program")
	}
	if res.Duration <= 0 {
		t.Fatalf("partial result has no elapsed time: %+v", res)
	}
}

// A context cancelled before RunCtx starts aborts before any dispatch, even
// with processes both scheduled and parked on barriers.
func TestRunCtxCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(Config{Source: geom.Origin})
	ran := false
	e.Spawn(SourceID, func(p *Proc) { ran = true })
	if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if ran {
		t.Fatal("process ran under a pre-cancelled context")
	}
}

// Cancellation unwinds processes parked on barriers too (the parked set, not
// just the scheduled queue), so no goroutine outlives RunCtx.
func TestRunCtxCancelUnwindsBarrier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine(Config{Source: geom.Origin, Sleepers: []geom.Point{geom.Pt(0.5, 0)}, Trace: func(ev Event) {
		if ev.Kind == "barrier" {
			cancel()
		}
	}})
	e.Spawn(SourceID, func(p *Proc) {
		if err := p.MoveTo(geom.Pt(0.5, 0)); err != nil {
			t.Errorf("move: %v", err)
			return
		}
		p.Wake(1, func(q *Proc) {
			// Parks forever: the source never arrives at this barrier.
			q.Await(&Barrier{Need: 2}, "never")
		})
		// Keep dispatching events so the cancel poll runs after the barrier.
		for i := 0; i < 10; i++ {
			p.Wait(1)
		}
	})
	if _, err := e.RunCtx(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

// A nil context behaves like Run: no polling, runs to completion.
func TestRunCtxNil(t *testing.T) {
	e := NewEngine(Config{Source: geom.Origin})
	e.Spawn(SourceID, func(p *Proc) { p.Wait(1) })
	if _, err := e.RunCtx(nil); err != nil {
		t.Fatal(err)
	}
}
